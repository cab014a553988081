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
//! instead (see DESIGN.md §1 for why this substitution is
//! behaviour-preserving):
//!
//! * points-to atoms consume one available cell and *bind* unbound
//!   existentials occurring as their root or field values;
//! * predicate atoms unfold case by case (cases with more spatial atoms
//!   first, so the search is greedy toward large coverage);
//! * pure atoms are deferred and discharged by fixpoint propagation once
//!   the spatial goals of a branch are exhausted.
//!
//! Among accepted carvings the search keeps the one with the smallest
//! residue (maximal coverage) and stops early when the residue is empty.

use std::collections::{BTreeMap, BTreeSet};

use sling_logic::{Expr, PredEnv, PureAtom, SpatialAtom, Subst, SymHeap, Symbol, TypeEnv};
use sling_models::{Heap, Loc, StackHeapModel, Val};

use crate::cache::{CanonicalQuery, CheckCache, QueryScope};
use crate::inst::Instantiation;

/// Tuning knobs for the search.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// Maximum number of search nodes explored per model before the search
    /// gives up and returns the best solution found so far (mirrors the
    /// paper's Z3 timeouts on trace-heavy loop locations).
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
    /// Entailment cache consulted by [`CheckCtx::check`]; `None` runs
    /// every query cold.
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

    /// Returns a copy of this context with different search limits.
    ///
    /// Used by the verification pass to run prover-initiated checks under
    /// a tighter budget than trace checking; the budget is part of the
    /// cache key, so re-limited contexts never exchange verdicts with the
    /// full-budget ones.
    pub fn with_config(mut self, config: CheckConfig) -> CheckCtx<'a> {
        self.config = config;
        self
    }

    /// Checks `f` against one model, returning the minimal-residue
    /// reduction if one exists.
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
        let Some(cache) = self.cache else {
            return Search::new(*self, model, f).run(f);
        };
        // The key must cover everything the verdict depends on: the
        // environments (tag) and the search limits (a budget-truncated
        // "no" must not answer a full-budget query).
        let scope = QueryScope {
            env_tag: self.env_tag,
            node_budget: self.config.node_budget,
            fuel_slack: self.config.fuel_slack,
        };
        let query = CanonicalQuery::new(model, f, scope);
        if let Some(entry) = cache.lookup(&query.key) {
            return entry.map(|cached| query.decode(model, &cached));
        }
        let result = Search::new(*self, model, f).run(f);
        match &result {
            Some(r) => {
                // `encode` only declines when a value escapes the
                // canonical frame; in that case skip storing rather than
                // memoize something untranslatable.
                if let Some(encoded) = query.encode(r) {
                    cache.store(query.key, Some(encoded), &query.preds);
                }
            }
            None => cache.store(query.key, None, &query.preds),
        }
        result
    }

    /// True if `f` models the heap *exactly* (empty residue).
    pub fn holds_exact(&self, model: &StackHeapModel, f: &SymHeap) -> bool {
        self.check(model, f)
            .map(|r| r.residual.is_empty())
            .unwrap_or(false)
    }

    /// Checks `f` against every model of a sequence; `None` unless all
    /// models admit a reduction.
    pub fn check_all(&self, models: &[StackHeapModel], f: &SymHeap) -> Option<Vec<Reduction>> {
        models.iter().map(|m| self.check(m, f)).collect()
    }

    /// True if the disjunction holds exactly on the model: some disjunct
    /// has an empty residue.
    pub fn holds_exact_disj(&self, model: &StackHeapModel, fs: &[SymHeap]) -> bool {
        fs.iter().any(|f| self.holds_exact(model, f))
    }
}

/// Partial valuation during search: existential bindings layered over the
/// (immutable) stack, plus a union structure for variables equated while
/// both are unbound.
#[derive(Debug, Clone, Default)]
struct Env {
    bound: BTreeMap<Symbol, Val>,
    classes: Vec<BTreeSet<Symbol>>,
}

impl Env {
    fn union_unbound(&mut self, a: Symbol, b: Symbol) {
        if a == b {
            return;
        }
        let ia = self.classes.iter().position(|c| c.contains(&a));
        let ib = self.classes.iter().position(|c| c.contains(&b));
        match (ia, ib) {
            (None, None) => self.classes.push([a, b].into_iter().collect()),
            (Some(i), None) => {
                self.classes[i].insert(b);
            }
            (None, Some(j)) => {
                self.classes[j].insert(a);
            }
            (Some(i), Some(j)) if i != j => {
                let hi = i.max(j);
                let lo = i.min(j);
                let moved = self.classes.swap_remove(hi);
                self.classes[lo].extend(moved);
            }
            _ => {}
        }
    }

    fn same_class(&self, a: Symbol, b: Symbol) -> bool {
        a == b
            || self
                .classes
                .iter()
                .any(|c| c.contains(&a) && c.contains(&b))
    }

    /// Binding a variable also binds its whole unbound-equality class.
    fn bind(&mut self, v: Symbol, val: Val) {
        if let Some(i) = self.classes.iter().position(|c| c.contains(&v)) {
            let class = self.classes.swap_remove(i);
            for member in class {
                self.bound.insert(member, val);
            }
        } else {
            self.bound.insert(v, val);
        }
    }
}

/// Result of evaluating an expression under stack + env.
enum Evaled {
    Known(Val),
    /// The expression is a single variable that is currently unbound (and
    /// therefore bindable).
    FreeVar(Symbol),
    /// Contains unbound variables under arithmetic — not bindable.
    Stuck,
}

#[derive(Debug, Clone)]
struct State {
    env: Env,
    avail: BTreeSet<Loc>,
    /// Spatial atoms left to match.
    goals: Vec<SpatialAtom>,
    /// Deferred pure atoms.
    pure: Vec<PureAtom>,
    fuel: u32,
}

struct Search<'a> {
    ctx: CheckCtx<'a>,
    model: &'a StackHeapModel,
    formula_exists: BTreeSet<Symbol>,
    nodes: u64,
    fresh_counter: u32,
    /// Best solution so far: remaining (uncovered) locations + env.
    best: Option<(BTreeSet<Loc>, Env)>,
    done: bool,
}

impl<'a> Search<'a> {
    fn new(ctx: CheckCtx<'a>, model: &'a StackHeapModel, f: &SymHeap) -> Search<'a> {
        let mut formula_exists: BTreeSet<Symbol> = f.exists.iter().copied().collect();
        // Free variables of the formula that are not on the stack behave
        // like existentials: they can be bound by matching. This lets
        // callers check open formulae.
        for v in f.free_vars() {
            if model.stack.get(v).is_none() {
                formula_exists.insert(v);
            }
        }
        Search {
            ctx,
            model,
            formula_exists,
            nodes: 0,
            fresh_counter: 0,
            best: None,
            done: false,
        }
    }

    fn run(mut self, f: &SymHeap) -> Option<Reduction> {
        let state = State {
            env: Env::default(),
            avail: self.model.heap.domain(),
            goals: f.spatial.clone(),
            pure: f.pure.clone(),
            fuel: 2 * self.model.heap.len() as u32 + self.ctx.config.fuel_slack,
        };
        self.explore(state);
        let (remaining, env) = self.best?;
        let residual = self.model.heap.restrict(&remaining);
        let covered = self.model.heap.len() - residual.len();
        let inst = Instantiation::from_bindings(
            env.bound
                .iter()
                .filter(|(v, _)| self.formula_exists.contains(*v))
                .map(|(v, val)| (*v, *val)),
        );
        Some(Reduction {
            residual,
            inst,
            covered,
        })
    }

    fn fresh(&mut self) -> Symbol {
        self.fresh_counter += 1;
        Symbol::intern(&format!("$u{}", self.fresh_counter))
    }

    fn eval(&self, env: &Env, e: &Expr) -> Evaled {
        match e {
            Expr::Nil => Evaled::Known(Val::Nil),
            Expr::Int(k) => Evaled::Known(Val::Int(*k)),
            Expr::Var(v) => {
                if let Some(val) = env.bound.get(v) {
                    Evaled::Known(*val)
                } else if let Some(val) = self.model.stack.get(*v) {
                    // Stack bindings win only for non-existential names;
                    // an existential shadowing a stack name is freshened
                    // during unfolding, so plain lookup is safe.
                    if self.formula_exists.contains(v) {
                        Evaled::FreeVar(*v)
                    } else {
                        Evaled::Known(val)
                    }
                } else {
                    Evaled::FreeVar(*v)
                }
            }
            Expr::Neg(inner) => match self.eval(env, inner) {
                Evaled::Known(Val::Int(k)) => match k.checked_neg() {
                    Some(r) => Evaled::Known(Val::Int(r)),
                    None => Evaled::Stuck,
                },
                _ => Evaled::Stuck,
            },
            Expr::Add(a, b) => self.eval_arith(env, a, b, |x, y| x.checked_add(y)),
            Expr::Sub(a, b) => self.eval_arith(env, a, b, |x, y| x.checked_sub(y)),
            Expr::Mul(k, inner) => match self.eval(env, inner) {
                Evaled::Known(Val::Int(v)) => match k.checked_mul(v) {
                    Some(r) => Evaled::Known(Val::Int(r)),
                    None => Evaled::Stuck,
                },
                _ => Evaled::Stuck,
            },
        }
    }

    fn eval_arith(&self, env: &Env, a: &Expr, b: &Expr, op: fn(i64, i64) -> Option<i64>) -> Evaled {
        match (self.eval(env, a), self.eval(env, b)) {
            (Evaled::Known(Val::Int(x)), Evaled::Known(Val::Int(y))) => match op(x, y) {
                Some(r) => Evaled::Known(Val::Int(r)),
                None => Evaled::Stuck,
            },
            _ => Evaled::Stuck,
        }
    }

    /// Depth-first exploration. Updates `self.best`; sets `self.done` when
    /// a full-coverage solution has been found (no better exists).
    fn explore(&mut self, mut state: State) {
        if self.done {
            return;
        }
        self.nodes += 1;
        if self.nodes > self.ctx.config.node_budget {
            self.done = true; // out of budget: keep whatever we have
            return;
        }

        // Eagerly discharge pure atoms that are already decidable; this
        // prunes doomed branches (e.g. a base case chosen mid-chain) long
        // before the leaf.
        if !self.propagate(&mut state) {
            return;
        }

        // Pick the next goal: prefer a points-to with a known root, then a
        // predicate with any known argument, then anything.
        let next = self.pick_goal(&state);
        let Some(idx) = next else {
            // All spatial goals matched; discharge the pure part.
            if let Some(env) = self.solve_pure(state.env.clone(), &state.pure) {
                let better = match &self.best {
                    None => true,
                    Some((best_remaining, _)) => state.avail.len() < best_remaining.len(),
                };
                if better {
                    let full = state.avail.is_empty();
                    self.best = Some((state.avail, env));
                    if full {
                        self.done = true;
                    }
                }
            }
            return;
        };

        let goal = state.goals.swap_remove(idx);
        match goal {
            SpatialAtom::PointsTo { root, ty, fields } => {
                match self.eval(&state.env, &root) {
                    Evaled::Known(Val::Addr(loc)) => {
                        self.match_cell(state, loc, ty, &fields);
                    }
                    Evaled::Known(_) => {} // nil or int root: unsatisfiable
                    Evaled::FreeVar(v) => {
                        // Enumerate candidate cells of the right type.
                        let candidates: Vec<Loc> = state
                            .avail
                            .iter()
                            .copied()
                            .filter(|l| {
                                self.model.heap.get(*l).map(|c| c.ty == ty).unwrap_or(false)
                            })
                            .collect();
                        for loc in candidates {
                            let mut st = state.clone();
                            st.env.bind(v, Val::Addr(loc));
                            self.match_cell(st, loc, ty, &fields);
                            if self.done {
                                return;
                            }
                        }
                    }
                    Evaled::Stuck => {}
                }
            }
            SpatialAtom::Pred { name, args } => {
                let Some(def) = self.ctx.preds.get(name) else {
                    return;
                };
                if def.arity() != args.len() || state.fuel == 0 {
                    return;
                }
                let mut cases = def.unfold(&args);
                // Greedy: try cases with more spatial atoms first so the
                // first solutions found have large coverage.
                cases.sort_by_key(|c| std::cmp::Reverse(c.spatial.len()));
                for case in cases {
                    // Freshen the case's own binders so repeated unfoldings
                    // of the same definition do not collide.
                    let case = self.freshen_case(case);
                    let mut st = state.clone();
                    st.fuel -= 1;
                    st.goals.extend(case.spatial);
                    st.pure.extend(case.pure);
                    self.explore(st);
                    if self.done {
                        return;
                    }
                }
            }
        }
    }

    /// Matches one points-to goal against the concrete cell at `loc`.
    fn match_cell(
        &mut self,
        mut state: State,
        loc: Loc,
        ty: Symbol,
        fields: &[sling_logic::FieldAssign],
    ) {
        if !state.avail.contains(&loc) {
            return;
        }
        let Some(cell) = self.model.heap.get(loc) else {
            return;
        };
        if cell.ty != ty {
            return;
        }
        let Some(def) = self.ctx.types.get(ty) else {
            return;
        };
        for fa in fields {
            let Some(i) = def.field_index(fa.name) else {
                return;
            };
            let Some(actual) = cell.fields.get(i).copied() else {
                return;
            };
            match self.eval(&state.env, &fa.value) {
                Evaled::Known(v) => {
                    if v != actual {
                        return;
                    }
                }
                Evaled::FreeVar(v) => state.env.bind(v, actual),
                Evaled::Stuck => return,
            }
        }
        state.avail.remove(&loc);
        self.explore(state);
    }

    /// Chooses the index of the next goal to attack, or `None` if no goals
    /// remain.
    fn pick_goal(&self, state: &State) -> Option<usize> {
        if state.goals.is_empty() {
            return None;
        }
        // 1. points-to with known root
        for (i, g) in state.goals.iter().enumerate() {
            if let SpatialAtom::PointsTo { root, .. } = g {
                if matches!(self.eval(&state.env, root), Evaled::Known(_)) {
                    return Some(i);
                }
            }
        }
        // 2. predicate with a known first pointer argument
        for (i, g) in state.goals.iter().enumerate() {
            if let SpatialAtom::Pred { args, .. } = g {
                if args
                    .iter()
                    .any(|a| matches!(self.eval(&state.env, a), Evaled::Known(_)))
                {
                    return Some(i);
                }
            }
        }
        // 3. anything
        Some(0)
    }

    /// Eager propagation used mid-search: binds variables via decidable
    /// equalities, discards satisfied atoms, and reports contradictions.
    /// Atoms that are not yet decidable are kept for the leaf check.
    fn propagate(&self, state: &mut State) -> bool {
        loop {
            let mut progress = false;
            let mut keep: Vec<PureAtom> = Vec::with_capacity(state.pure.len());
            for atom in std::mem::take(&mut state.pure) {
                let (a, b) = atom.operands();
                match (self.eval(&state.env, a), self.eval(&state.env, b)) {
                    (Evaled::Known(va), Evaled::Known(vb)) => {
                        let ok = match &atom {
                            PureAtom::Eq(..) => va == vb,
                            PureAtom::Neq(..) => va != vb,
                            PureAtom::Lt(..) => {
                                matches!((va, vb), (Val::Int(x), Val::Int(y)) if x < y)
                            }
                            PureAtom::Le(..) => {
                                matches!((va, vb), (Val::Int(x), Val::Int(y)) if x <= y)
                            }
                        };
                        if !ok {
                            return false;
                        }
                        progress = true; // atom discharged
                    }
                    (Evaled::Known(va), Evaled::FreeVar(vb))
                        if matches!(atom, PureAtom::Eq(..)) =>
                    {
                        state.env.bind(vb, va);
                        progress = true;
                    }
                    (Evaled::FreeVar(va), Evaled::Known(vb))
                        if matches!(atom, PureAtom::Eq(..)) =>
                    {
                        state.env.bind(va, vb);
                        progress = true;
                    }
                    _ => keep.push(atom),
                }
            }
            state.pure = keep;
            if !progress {
                return true;
            }
        }
    }

    /// Fixpoint propagation and final evaluation of the pure part.
    /// Returns the extended environment on success.
    fn solve_pure(&self, mut env: Env, pure: &[PureAtom]) -> Option<Env> {
        let mut atoms: Vec<PureAtom> = pure.to_vec();
        // Propagate equalities that bind unbound variables.
        loop {
            let mut progress = false;
            let mut still: Vec<PureAtom> = Vec::with_capacity(atoms.len());
            for atom in &atoms {
                if let PureAtom::Eq(a, b) = atom {
                    match (self.eval(&env, a), self.eval(&env, b)) {
                        (Evaled::Known(va), Evaled::FreeVar(vb)) => {
                            env.bind(vb, va);
                            progress = true;
                            continue;
                        }
                        (Evaled::FreeVar(va), Evaled::Known(vb)) => {
                            env.bind(va, vb);
                            progress = true;
                            continue;
                        }
                        _ => {}
                    }
                }
                still.push(atom.clone());
            }
            atoms = still;
            if !progress {
                break;
            }
        }
        // Evaluate what remains. Constraints over still-unbound variables
        // are checked for satisfiability: interval feasibility for
        // variable-vs-constant bounds, plus strict-cycle detection for
        // variable-vs-variable order constraints. (Mixed chains such as
        // `a <= b & b <= 3 & 5 <= a` are accepted optimistically — full
        // difference-constraint solving is not needed by any predicate in
        // the benchmark suite.)
        let mut bounds: BTreeMap<Symbol, (Option<i64>, Option<i64>)> = BTreeMap::new();
        let mut exclude: BTreeMap<Symbol, BTreeSet<Val>> = BTreeMap::new();
        // (from, to, strict): `from < to` or `from <= to`.
        let mut order_edges: Vec<(Symbol, Symbol, bool)> = Vec::new();
        for atom in &atoms {
            let (a, b) = atom.operands();
            match (self.eval(&env, a), self.eval(&env, b)) {
                (Evaled::Known(va), Evaled::Known(vb)) => {
                    let ok = match atom {
                        PureAtom::Eq(..) => va == vb,
                        PureAtom::Neq(..) => va != vb,
                        PureAtom::Lt(..) => match (va, vb) {
                            (Val::Int(x), Val::Int(y)) => x < y,
                            _ => false,
                        },
                        PureAtom::Le(..) => match (va, vb) {
                            (Val::Int(x), Val::Int(y)) => x <= y,
                            _ => false,
                        },
                    };
                    if !ok {
                        return None;
                    }
                }
                (Evaled::FreeVar(va), Evaled::FreeVar(vb)) => match atom {
                    // Vacuous equality between two unconstrained
                    // existentials: record the class and accept.
                    PureAtom::Eq(..) => env.union_unbound(va, vb),
                    PureAtom::Neq(..) => {
                        if env.same_class(va, vb) {
                            return None;
                        }
                    }
                    PureAtom::Lt(..) => {
                        if env.same_class(va, vb) {
                            return None;
                        }
                        order_edges.push((va, vb, true));
                    }
                    PureAtom::Le(..) => order_edges.push((va, vb, false)),
                },
                (Evaled::FreeVar(v), Evaled::Known(k)) => match atom {
                    PureAtom::Eq(..) => unreachable!("handled by propagation"),
                    PureAtom::Neq(..) => {
                        exclude.entry(v).or_default().insert(k);
                    }
                    // `v < i64::MIN` has no integer solution.
                    PureAtom::Lt(..) => match k {
                        Val::Int(y) => tighten(&mut bounds, v, None, Some(y.checked_sub(1)?)),
                        _ => return None,
                    },
                    PureAtom::Le(..) => match k {
                        Val::Int(y) => tighten(&mut bounds, v, None, Some(y)),
                        _ => return None,
                    },
                },
                (Evaled::Known(k), Evaled::FreeVar(v)) => match atom {
                    PureAtom::Eq(..) => unreachable!("handled by propagation"),
                    PureAtom::Neq(..) => {
                        exclude.entry(v).or_default().insert(k);
                    }
                    // `i64::MAX < v` has no integer solution.
                    PureAtom::Lt(..) => match k {
                        Val::Int(x) => tighten(&mut bounds, v, Some(x.checked_add(1)?), None),
                        _ => return None,
                    },
                    PureAtom::Le(..) => match k {
                        Val::Int(x) => tighten(&mut bounds, v, Some(x), None),
                        _ => return None,
                    },
                },
                // One side stuck (unbound variables under arithmetic):
                // conservatively reject this carving.
                _ => return None,
            }
        }
        // Interval feasibility.
        for (v, (lo, hi)) in &bounds {
            if let (Some(lo), Some(hi)) = (lo, hi) {
                if lo > hi {
                    return None;
                }
                if lo == hi && exclude.get(v).is_some_and(|ex| ex.contains(&Val::Int(*lo))) {
                    return None;
                }
            }
        }
        // Strict cycles among unbound variables (e.g. a < b & b < a).
        if has_strict_cycle(&env, &order_edges) {
            return None;
        }
        Some(env)
    }

    /// Alpha-renames the bound variables of an unfolded case to fresh
    /// search-internal names.
    #[allow(clippy::wrong_self_convention)]
    fn freshen_case(&mut self, case: SymHeap) -> SymHeap {
        if case.exists.is_empty() {
            return case;
        }
        let map: Subst = case
            .exists
            .iter()
            .map(|v| (*v, Expr::Var(self.fresh())))
            .collect();
        sling_logic::subst_symheap_bound(&case, &map)
    }
}

/// Narrows the `[lo, hi]` interval recorded for `v`.
fn tighten(
    bounds: &mut BTreeMap<Symbol, (Option<i64>, Option<i64>)>,
    v: Symbol,
    lo: Option<i64>,
    hi: Option<i64>,
) {
    let entry = bounds.entry(v).or_insert((None, None));
    if let Some(lo) = lo {
        entry.0 = Some(entry.0.map_or(lo, |old| old.max(lo)));
    }
    if let Some(hi) = hi {
        entry.1 = Some(entry.1.map_or(hi, |old| old.min(hi)));
    }
}

/// Detects a cycle containing at least one strict edge in the order graph
/// over unbound-variable classes.
fn has_strict_cycle(env: &Env, edges: &[(Symbol, Symbol, bool)]) -> bool {
    if edges.is_empty() {
        return false;
    }
    // Collapse symbols to class representatives.
    let rep = |s: Symbol| -> Symbol {
        env.classes
            .iter()
            .find(|c| c.contains(&s))
            .and_then(|c| c.iter().next().copied())
            .unwrap_or(s)
    };
    let mut nodes: BTreeSet<Symbol> = BTreeSet::new();
    let mut adj: BTreeMap<Symbol, Vec<(Symbol, bool)>> = BTreeMap::new();
    for &(a, b, strict) in edges {
        let (a, b) = (rep(a), rep(b));
        if a == b {
            if strict {
                return true;
            }
            continue;
        }
        nodes.insert(a);
        nodes.insert(b);
        adj.entry(a).or_default().push((b, strict));
    }
    // DFS from each node tracking whether the path used a strict edge.
    for &start in &nodes {
        let mut stack = vec![(start, false)];
        let mut seen: BTreeSet<(Symbol, bool)> = BTreeSet::new();
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
    use sling_logic::parse_formula;
    use sling_models::Stack;

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
    fn nothing_is_above_i64_max() {
        assert!(check_with_k(i64::MAX, "exists u. emp & k < u").is_none());
        assert!(check_with_k(i64::MAX, "exists u. emp & k <= u").is_some());
    }
}
