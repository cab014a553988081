//! A deliberately scoped bi-abduction static analyzer — the stand-in for
//! the S2 tool in the paper's Table 2 comparison, because S2 analyzes C
//! and cannot run on the MiniC corpus.
//!
//! The real S2 (Le et al., CAV'14) uses second-order bi-abduction over
//! full C. This crate implements the same *kind* of analysis — forward
//! symbolic execution over symbolic heaps, unfolding shape predicates at
//! dereferences and folding the final state back into predicate instances
//! — over MiniC, restricted to the fragment where that style of analysis
//! is strong:
//!
//! * **recursive** functions (no loops: loop invariants would need
//!   widening this baseline does not implement — matching Table 2, where
//!   S2 misses almost all iterative glib programs);
//! * structures describable by a **unary pointer predicate** (`sll`,
//!   `tree`, ...): doubly linked, nested, or parameter-rich predicates
//!   (`dll/4`, `bst/3`) are out of scope — matching S2's published
//!   profile (0/13 DLL properties found);
//! * self-calls handled by the **inductive summary** `{shape(p⃗)} f
//!   {shape(res)}`, fresh-chunk havocking the result.
//!
//! The output is a specification in the same formula vocabulary SLING
//! uses, so the Table 2 harness can run one property matcher over both
//! tools' results.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

use sling_lang::{BinOp, Block, Expr, ExprKind, FuncDecl, LValue, Program, Stmt, StmtKind, UnOp};
use sling_logic::{FieldTy, FreshVars, PredDef, PredEnv, SpatialAtom, SymHeap, Symbol};

/// Why the baseline declined a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Unsupported {
    /// The function contains a loop (no widening implemented).
    Loop,
    /// No unary shape predicate describes the parameter's structure.
    NoShapePredicate(Symbol),
    /// A call to a function other than the target itself.
    ExternalCall(Symbol),
    /// Dereference of a pointer with no materialized cell or chunk.
    UnknownPointer,
    /// The final heap of some path does not fold back into predicates.
    FoldFailure,
    /// State explosion (fork/step budget exhausted).
    Budget,
    /// The function has no pointer parameter or target is missing.
    NotApplicable,
}

impl fmt::Display for Unsupported {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unsupported::Loop => f.write_str("loops are outside the supported fragment"),
            Unsupported::NoShapePredicate(t) => {
                write!(f, "no unary shape predicate for struct `{t}`")
            }
            Unsupported::ExternalCall(n) => write!(f, "call to external function `{n}`"),
            Unsupported::UnknownPointer => f.write_str("dereference of unknown pointer"),
            Unsupported::FoldFailure => f.write_str("final state does not fold into predicates"),
            Unsupported::Budget => f.write_str("state budget exhausted"),
            Unsupported::NotApplicable => f.write_str("not applicable"),
        }
    }
}

impl std::error::Error for Unsupported {}

/// A specification inferred by the baseline.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Precondition over the parameters.
    pub pre: SymHeap,
    /// One postcondition per reachable exit index.
    pub posts: Vec<(usize, SymHeap)>,
}

/// Infers a specification for `target`, or explains why it cannot.
///
/// # Errors
///
/// Returns [`Unsupported`] for programs outside the fragment.
pub fn infer_spec(program: &Program, target: Symbol, preds: &PredEnv) -> Result<Spec, Unsupported> {
    let func = program.func(target).ok_or(Unsupported::NotApplicable)?;
    reject_loops(&func.body)?;

    // Map each pointer-parameter struct to its unary shape predicate.
    let mut shapes: BTreeMap<Symbol, &PredDef> = BTreeMap::new();
    for p in &func.params {
        if let sling_lang::TyExpr::Ptr(s) = p.ty {
            let def = unary_shape_pred(preds, s).ok_or(Unsupported::NoShapePredicate(s))?;
            shapes.insert(s, def);
        }
    }
    if shapes.is_empty()
        && func
            .params
            .iter()
            .any(|p| matches!(p.ty, sling_lang::TyExpr::Ptr(_)))
    {
        return Err(Unsupported::NotApplicable);
    }

    let mut exec = Exec {
        program,
        func,
        shapes,
        states_explored: 0,
        exits: BTreeMap::new(),
        exit_index: index_returns(&func.body),
    };
    let init = State::initial(func);
    exec.run_block(&func.body, init)?;

    // Fold every exit state; all states at an exit must agree on the
    // post skeleton (we take the disjunction-free strongest common form:
    // if they differ we keep each as its own exit entry only when one
    // state reached it).
    let mut posts = Vec::new();
    for (exit, states) in &exec.exits {
        let mut folded: Option<SymHeap> = None;
        for st in states {
            let f = fold_state(st, &exec.shapes)?;
            match &folded {
                None => folded = Some(f),
                Some(prev) if *prev == f => {}
                // Differing posts at one syntactic exit: keep the weaker
                // common shape by requiring equality (S2-style strongest
                // spec search gives up here).
                Some(_) => return Err(Unsupported::FoldFailure),
            }
        }
        if let Some(f) = folded {
            posts.push((*exit, f));
        }
    }

    // Precondition: shape(p) for every pointer parameter.
    let mut pre = SymHeap::emp();
    for p in &func.params {
        if let sling_lang::TyExpr::Ptr(s) = p.ty {
            let def = exec.shapes[&s];
            pre = pre.star(SymHeap {
                exists: vec![],
                spatial: vec![SpatialAtom::Pred {
                    name: def.name,
                    args: vec![sling_logic::Expr::Var(p.name)],
                }],
                pure: vec![],
            });
        }
    }
    Ok(Spec { pre, posts })
}

/// Finds a predicate with exactly one pointer parameter of type `ty`
/// (extra *int* parameters disqualify it: the baseline has no data
/// reasoning).
fn unary_shape_pred(preds: &PredEnv, ty: Symbol) -> Option<&PredDef> {
    preds
        .iter()
        .find(|d| d.params.len() == 1 && d.params[0].ty == FieldTy::Ptr(ty))
}

fn reject_loops(block: &Block) -> Result<(), Unsupported> {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::While { .. } => return Err(Unsupported::Loop),
            StmtKind::If {
                then_blk, else_blk, ..
            } => {
                reject_loops(then_blk)?;
                if let Some(e) = else_blk {
                    reject_loops(e)?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

fn index_returns(block: &Block) -> BTreeMap<*const Stmt, usize> {
    let mut map = BTreeMap::new();
    let mut idx = 0usize;
    fn walk(block: &Block, map: &mut BTreeMap<*const Stmt, usize>, idx: &mut usize) {
        for stmt in &block.stmts {
            match &stmt.kind {
                StmtKind::Return(_) => {
                    map.insert(stmt as *const Stmt, *idx);
                    *idx += 1;
                }
                StmtKind::If {
                    then_blk, else_blk, ..
                } => {
                    walk(then_blk, map, idx);
                    if let Some(e) = else_blk {
                        walk(e, map, idx);
                    }
                }
                StmtKind::While { body, .. } => walk(body, map, idx),
                _ => {}
            }
        }
    }
    walk(block, &mut map, &mut idx);
    map
}

/// A symbolic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SV {
    /// Definitely null.
    Null,
    /// A symbolic heap object (cell or shape chunk).
    Obj(u32),
    /// An unconstrained integer.
    Int,
}

/// A materialized cell: concrete fields.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Cell {
    ty: Symbol,
    fields: Vec<SV>,
}

/// One symbolic state.
#[derive(Debug, Clone)]
struct State {
    env: BTreeMap<Symbol, SV>,
    cells: BTreeMap<u32, Cell>,
    /// Unmaterialized shape chunks: object id → struct type.
    chunks: BTreeMap<u32, Symbol>,
    next: u32,
    /// The value returned, once a `return` executes.
    result: Option<SV>,
}

impl State {
    fn initial(func: &FuncDecl) -> State {
        let mut st = State {
            env: BTreeMap::new(),
            cells: BTreeMap::new(),
            chunks: BTreeMap::new(),
            next: 1,
            result: None,
        };
        for p in &func.params {
            let v = match p.ty {
                sling_lang::TyExpr::Ptr(s) => {
                    let id = st.fresh();
                    st.chunks.insert(id, s);
                    SV::Obj(id)
                }
                _ => SV::Int,
            };
            st.env.insert(p.name, v);
        }
        st
    }

    fn fresh(&mut self) -> u32 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Replaces every occurrence of `Obj(id)` with `Null` (a chunk
    /// assumed empty by a null-test fork).
    fn assume_null(&mut self, id: u32) {
        self.chunks.remove(&id);
        for v in self.env.values_mut() {
            if *v == SV::Obj(id) {
                *v = SV::Null;
            }
        }
        for c in self.cells.values_mut() {
            for f in &mut c.fields {
                if *f == SV::Obj(id) {
                    *f = SV::Null;
                }
            }
        }
    }
}

struct Exec<'a> {
    program: &'a Program,
    func: &'a FuncDecl,
    shapes: BTreeMap<Symbol, &'a PredDef>,
    states_explored: u32,
    exits: BTreeMap<usize, Vec<State>>,
    exit_index: BTreeMap<*const Stmt, usize>,
}

const MAX_STATES: u32 = 512;

enum Outcome {
    /// Execution continues with these states.
    Cont(Vec<State>),
}

impl<'a> Exec<'a> {
    fn budget(&mut self) -> Result<(), Unsupported> {
        self.states_explored += 1;
        if self.states_explored > MAX_STATES {
            return Err(Unsupported::Budget);
        }
        Ok(())
    }

    fn run_block(&mut self, block: &Block, state: State) -> Result<Outcome, Unsupported> {
        let mut states = vec![state];
        for stmt in &block.stmts {
            let mut next = Vec::new();
            for st in states {
                if st.result.is_some() {
                    continue; // already returned on this path
                }
                let Outcome::Cont(out) = self.run_stmt(stmt, st)?;
                next.extend(out);
            }
            states = next;
            if states.is_empty() {
                break;
            }
        }
        Ok(Outcome::Cont(states))
    }

    fn run_stmt(&mut self, stmt: &Stmt, mut st: State) -> Result<Outcome, Unsupported> {
        self.budget()?;
        match &stmt.kind {
            StmtKind::While { .. } => Err(Unsupported::Loop),
            StmtKind::VarDecl { name, ty, init } => {
                let mut states = match init {
                    Some(e) => self.eval(e, st)?,
                    None => vec![(
                        match ty {
                            sling_lang::TyExpr::Ptr(_) => SV::Null,
                            _ => SV::Int,
                        },
                        st,
                    )],
                };
                for (v, s) in &mut states {
                    s.env.insert(*name, *v);
                }
                Ok(Outcome::Cont(states.into_iter().map(|(_, s)| s).collect()))
            }
            StmtKind::Assign { lhs, rhs } => {
                let vals = self.eval(rhs, st)?;
                let mut out = Vec::new();
                for (v, mut s) in vals {
                    match lhs {
                        LValue::Var(x) => {
                            s.env.insert(*x, v);
                            out.push(s);
                        }
                        LValue::Field(base, field) => {
                            for (bv, mut s2) in self.eval(base, s.clone())? {
                                let id = self.materialize(&mut s2, bv)?;
                                let idx = self.field_idx(&s2, id, *field)?;
                                s2.cells.get_mut(&id).expect("materialized").fields[idx] = v;
                                out.push(s2);
                            }
                        }
                    }
                }
                Ok(Outcome::Cont(out))
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let branches = self.eval_cond(cond, st)?;
                let mut out = Vec::new();
                for (truth, s) in branches {
                    let res = if truth {
                        self.run_block(then_blk, s)?
                    } else if let Some(e) = else_blk {
                        self.run_block(e, s)?
                    } else {
                        Outcome::Cont(vec![s])
                    };
                    let Outcome::Cont(states) = res;
                    out.extend(states);
                }
                Ok(Outcome::Cont(out))
            }
            StmtKind::Return(value) => {
                let idx = *self
                    .exit_index
                    .get(&(stmt as *const Stmt))
                    .expect("indexed");
                match value {
                    None => {
                        st.result = Some(SV::Null);
                        self.exits.entry(idx).or_default().push(st.clone());
                        Ok(Outcome::Cont(vec![st]))
                    }
                    Some(e) => {
                        let mut out = Vec::new();
                        for (v, mut s) in self.eval(e, st)? {
                            s.result = Some(v);
                            self.exits.entry(idx).or_default().push(s.clone());
                            out.push(s);
                        }
                        Ok(Outcome::Cont(out))
                    }
                }
            }
            StmtKind::Free(e) => {
                let mut out = Vec::new();
                for (v, mut s) in self.eval(e, st)? {
                    match v {
                        SV::Obj(id) if s.cells.contains_key(&id) => {
                            s.cells.remove(&id);
                            out.push(s);
                        }
                        // Freeing an unmaterialized chunk or null: out of
                        // fragment.
                        _ => return Err(Unsupported::UnknownPointer),
                    }
                }
                Ok(Outcome::Cont(out))
            }
            StmtKind::ExprStmt(e) => {
                let out = self.eval(e, st)?;
                Ok(Outcome::Cont(out.into_iter().map(|(_, s)| s).collect()))
            }
            StmtKind::Label(_) => Ok(Outcome::Cont(vec![st])),
        }
    }

    /// Evaluates an expression, forking as needed. Returns value/state
    /// pairs.
    fn eval(&mut self, e: &Expr, st: State) -> Result<Vec<(SV, State)>, Unsupported> {
        match &e.kind {
            ExprKind::Int(_) => Ok(vec![(SV::Int, st)]),
            ExprKind::Bool(_) => Ok(vec![(SV::Int, st)]),
            ExprKind::Null => Ok(vec![(SV::Null, st)]),
            ExprKind::Var(x) => {
                let v = *st.env.get(x).ok_or(Unsupported::UnknownPointer)?;
                Ok(vec![(v, st)])
            }
            ExprKind::Field(base, field) => {
                let mut out = Vec::new();
                for (bv, mut s) in self.eval(base, st)? {
                    let id = self.materialize(&mut s, bv)?;
                    let idx = self.field_idx(&s, id, *field)?;
                    let v = s.cells[&id].fields[idx];
                    out.push((v, s));
                }
                Ok(out)
            }
            ExprKind::New(ty, inits) => {
                let sdef = self
                    .program
                    .strukt(*ty)
                    .ok_or(Unsupported::UnknownPointer)?;
                let mut fields: Vec<SV> = sdef
                    .fields
                    .iter()
                    .map(|(_, t)| match t {
                        sling_lang::TyExpr::Ptr(_) => SV::Null,
                        _ => SV::Int,
                    })
                    .collect();
                let mut states = vec![(fields.clone(), st)];
                for (fname, fexpr) in inits {
                    let idx = sdef.fields.iter().position(|(n, _)| n == fname).unwrap();
                    let mut next = Vec::new();
                    for (f, s) in states {
                        for (v, s2) in self.eval(fexpr, s)? {
                            let mut f2 = f.clone();
                            f2[idx] = v;
                            next.push((f2, s2));
                        }
                    }
                    states = next;
                }
                let mut out = Vec::new();
                for (f, mut s) in states {
                    let id = s.fresh();
                    s.cells.insert(
                        id,
                        Cell {
                            ty: *ty,
                            fields: f.clone(),
                        },
                    );
                    out.push((SV::Obj(id), s));
                }
                fields.clear();
                Ok(out)
            }
            ExprKind::Unary(UnOp::Neg, _) => Ok(vec![(SV::Int, st)]),
            ExprKind::Unary(UnOp::Not, inner) => {
                // Boolean negation: evaluate for effect/forks only.
                let out = self.eval_cond(inner, st)?;
                Ok(out.into_iter().map(|(_, s)| (SV::Int, s)).collect())
            }
            ExprKind::Binary(op, a, b) => match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                    let mut out = Vec::new();
                    for (_, s) in self.eval(a, st)? {
                        for (_, s2) in self.eval(b, s)? {
                            out.push((SV::Int, s2));
                        }
                    }
                    Ok(out)
                }
                _ => {
                    let branches = self.eval_cond(e, st)?;
                    Ok(branches.into_iter().map(|(_, s)| (SV::Int, s)).collect())
                }
            },
            ExprKind::Call(fname, args) => {
                if *fname != self.func.name {
                    return Err(Unsupported::ExternalCall(*fname));
                }
                // Inductive summary: arguments must be shape-typed (null,
                // chunk, or a cell that folds); result is a fresh chunk of
                // the return type.
                let mut states = vec![(Vec::<SV>::new(), st)];
                for a in args {
                    let mut next = Vec::new();
                    for (vals, s) in states {
                        for (v, s2) in self.eval(a, s)? {
                            let mut vs = vals.clone();
                            vs.push(v);
                            next.push((vs, s2));
                        }
                    }
                    states = next;
                }
                let mut out = Vec::new();
                for (vals, mut s) in states {
                    // Consume each pointer argument's footprint.
                    for (v, p) in vals.iter().zip(&self.func.params) {
                        if let sling_lang::TyExpr::Ptr(pty) = p.ty {
                            consume_shape(&mut s, *v, pty, &self.shapes)?;
                        }
                    }
                    let rv = match self.func.ret {
                        sling_lang::TyExpr::Ptr(rty) => {
                            let id = s.fresh();
                            s.chunks.insert(id, rty);
                            SV::Obj(id)
                        }
                        sling_lang::TyExpr::Void => SV::Null,
                        _ => SV::Int,
                    };
                    out.push((rv, s));
                }
                Ok(out)
            }
        }
    }

    /// Evaluates a condition, forking on pointer null tests.
    fn eval_cond(&mut self, e: &Expr, st: State) -> Result<Vec<(bool, State)>, Unsupported> {
        match &e.kind {
            ExprKind::Binary(BinOp::And, a, b) => {
                let mut out = Vec::new();
                for (ta, s) in self.eval_cond(a, st)? {
                    if ta {
                        out.extend(self.eval_cond(b, s)?);
                    } else {
                        out.push((false, s));
                    }
                }
                Ok(out)
            }
            ExprKind::Binary(BinOp::Or, a, b) => {
                let mut out = Vec::new();
                for (ta, s) in self.eval_cond(a, st)? {
                    if ta {
                        out.push((true, s));
                    } else {
                        out.extend(self.eval_cond(b, s)?);
                    }
                }
                Ok(out)
            }
            ExprKind::Unary(UnOp::Not, inner) => {
                let out = self.eval_cond(inner, st)?;
                Ok(out.into_iter().map(|(t, s)| (!t, s)).collect())
            }
            ExprKind::Binary(op @ (BinOp::Eq | BinOp::Ne), a, b) => {
                let mut out = Vec::new();
                for (va, s) in self.eval(a, st)? {
                    for (vb, s2) in self.eval(b, s.clone())? {
                        out.extend(self.decide_eq(va, vb, *op == BinOp::Eq, s2)?);
                    }
                }
                Ok(out)
            }
            // Integer comparisons: unconstrained, fork both ways.
            ExprKind::Binary(_, a, b) => {
                let mut out = Vec::new();
                for (_, s) in self.eval(a, st)? {
                    for (_, s2) in self.eval(b, s.clone())? {
                        out.push((true, s2.clone()));
                        out.push((false, s2));
                    }
                }
                Ok(out)
            }
            ExprKind::Bool(b) => Ok(vec![(*b, st)]),
            _ => {
                // Variable or call of bool type: fork.
                let vals = self.eval(e, st)?;
                let mut out = Vec::new();
                for (_, s) in vals {
                    out.push((true, s.clone()));
                    out.push((false, s));
                }
                Ok(out)
            }
        }
    }

    fn decide_eq(
        &mut self,
        a: SV,
        b: SV,
        is_eq: bool,
        st: State,
    ) -> Result<Vec<(bool, State)>, Unsupported> {
        let raw = match (a, b) {
            (SV::Null, SV::Null) => Some(true),
            (SV::Obj(x), SV::Obj(y)) if x == y => Some(true),
            (SV::Obj(x), SV::Obj(y)) => {
                // Distinct objects: cells are separate (≠); chunks might
                // both be empty, but shape analyses treat distinct
                // footprints as disequal — adopt that.
                let _ = (x, y);
                Some(false)
            }
            (SV::Int, _) | (_, SV::Int) => None, // unconstrained ints
            (SV::Null, SV::Obj(id)) | (SV::Obj(id), SV::Null) => {
                // The interesting fork: a chunk may be empty.
                if st.cells.contains_key(&id) {
                    Some(false) // materialized cell is non-null
                } else if st.chunks.contains_key(&id) {
                    let mut null_side = st.clone();
                    null_side.assume_null(id);
                    let nonnull_side = st;
                    return Ok(vec![(is_eq, null_side), (!is_eq, nonnull_side)]);
                } else {
                    // Dangling object id (freed): out of fragment.
                    return Err(Unsupported::UnknownPointer);
                }
            }
        };
        match raw {
            Some(t) => Ok(vec![(t == is_eq, st)]),
            None => Ok(vec![(true, st.clone()), (false, st)]),
        }
    }

    /// Ensures `v` is a materialized cell, unfolding a chunk if needed.
    fn materialize(&mut self, st: &mut State, v: SV) -> Result<u32, Unsupported> {
        match v {
            SV::Obj(id) if st.cells.contains_key(&id) => Ok(id),
            SV::Obj(id) => {
                let ty = *st.chunks.get(&id).ok_or(Unsupported::UnknownPointer)?;
                st.chunks.remove(&id);
                // Unfold: one cell whose recursive pointer fields are
                // fresh chunks of the same structure, other pointers null.
                let sdef = self.program.strukt(ty).ok_or(Unsupported::UnknownPointer)?;
                let mut fields = Vec::with_capacity(sdef.fields.len());
                for (_, fty) in &sdef.fields {
                    let fv = match fty {
                        sling_lang::TyExpr::Ptr(t) if *t == ty => {
                            let cid = st.fresh();
                            st.chunks.insert(cid, ty);
                            SV::Obj(cid)
                        }
                        sling_lang::TyExpr::Ptr(t) => {
                            // Nested foreign structure: supported only if
                            // it has its own shape predicate.
                            if self.shapes.contains_key(t) {
                                let cid = st.fresh();
                                st.chunks.insert(cid, *t);
                                SV::Obj(cid)
                            } else {
                                return Err(Unsupported::NoShapePredicate(*t));
                            }
                        }
                        _ => SV::Int,
                    };
                    fields.push(fv);
                }
                st.cells.insert(id, Cell { ty, fields });
                Ok(id)
            }
            SV::Null => Err(Unsupported::UnknownPointer),
            SV::Int => Err(Unsupported::UnknownPointer),
        }
    }

    fn field_idx(&self, st: &State, id: u32, field: Symbol) -> Result<usize, Unsupported> {
        let cell = st.cells.get(&id).ok_or(Unsupported::UnknownPointer)?;
        let sdef = self
            .program
            .strukt(cell.ty)
            .ok_or(Unsupported::UnknownPointer)?;
        sdef.fields
            .iter()
            .position(|(n, _)| *n == field)
            .ok_or(Unsupported::UnknownPointer)
    }
}

/// Consumes the footprint of `v` as one `shape(ty)` instance: null and
/// chunks are consumed directly; materialized cells fold recursively.
#[allow(clippy::only_used_in_recursion)]
fn consume_shape(
    st: &mut State,
    v: SV,
    ty: Symbol,
    shapes: &BTreeMap<Symbol, &PredDef>,
) -> Result<(), Unsupported> {
    match v {
        SV::Null => Ok(()),
        SV::Int => Err(Unsupported::UnknownPointer),
        SV::Obj(id) => {
            if let Some(cty) = st.chunks.get(&id).copied() {
                if cty != ty {
                    return Err(Unsupported::FoldFailure);
                }
                st.chunks.remove(&id);
                return Ok(());
            }
            let cell = st.cells.get(&id).cloned().ok_or(Unsupported::FoldFailure)?;
            if cell.ty != ty {
                return Err(Unsupported::FoldFailure);
            }
            st.cells.remove(&id);
            for f in cell.fields {
                match f {
                    SV::Int | SV::Null => {}
                    SV::Obj(_) => consume_shape(st, f, ty, shapes)?,
                }
            }
            Ok(())
        }
    }
}

/// Folds an exit state into a postcondition: the result and every
/// leftover parameter footprint must be shape instances, and no cell may
/// leak.
fn fold_state(state: &State, shapes: &BTreeMap<Symbol, &PredDef>) -> Result<SymHeap, Unsupported> {
    let mut st = state.clone();
    let mut atoms: Vec<SpatialAtom> = Vec::new();
    let mut fresh = FreshVars::new("v");

    // The result first.
    if let Some(rv) = st.result {
        if let SV::Obj(id) = rv {
            let ty = st
                .chunks
                .get(&id)
                .copied()
                .or_else(|| st.cells.get(&id).map(|c| c.ty))
                .ok_or(Unsupported::FoldFailure)?;
            let def = shapes.get(&ty).ok_or(Unsupported::NoShapePredicate(ty))?;
            consume_shape(&mut st, rv, ty, shapes)?;
            atoms.push(SpatialAtom::Pred {
                name: def.name,
                args: vec![sling_logic::Expr::Var(Symbol::intern("res"))],
            });
        }
    }

    // Remaining named footprints: parameters still pointing at objects.
    let param_names: Vec<Symbol> = st.env.keys().copied().collect();
    for name in param_names {
        let v = st.env[&name];
        if let SV::Obj(id) = v {
            let ty = st
                .chunks
                .get(&id)
                .copied()
                .or_else(|| st.cells.get(&id).map(|c| c.ty));
            if let Some(ty) = ty {
                let def = shapes.get(&ty).ok_or(Unsupported::NoShapePredicate(ty))?;
                consume_shape(&mut st, v, ty, shapes)?;
                atoms.push(SpatialAtom::Pred {
                    name: def.name,
                    args: vec![sling_logic::Expr::Var(name)],
                });
            }
        }
    }

    // Any unconsumed chunk or cell is a leak (or an unfoldable shape).
    if !st.cells.is_empty() || !st.chunks.is_empty() {
        return Err(Unsupported::FoldFailure);
    }
    let _ = fresh.take(0);
    Ok(SymHeap {
        exists: vec![],
        spatial: atoms,
        pure: vec![],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_lang::{check_program, parse_program};
    use sling_logic::parse_predicates;

    fn preds() -> PredEnv {
        let mut env = PredEnv::new();
        for d in parse_predicates(
            "pred sll(x: SNode*) := emp & x == nil
               | exists u, d. x -> SNode{next: u, data: d} * sll(u);
             pred tree(t: TNode*) := emp & t == nil
               | exists l, r, d. t -> TNode{left: l, right: r, data: d} * tree(l) * tree(r);",
        )
        .unwrap()
        {
            env.define(d).unwrap();
        }
        env
    }

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn infers_recursive_append() {
        let p = parse_program(
            "struct SNode { next: SNode*; data: int; }
             fn append(x: SNode*, y: SNode*) -> SNode* {
                 if (x == null) { return y; }
                 x->next = append(x->next, y);
                 return x;
             }",
        )
        .unwrap();
        check_program(&p).unwrap();
        let spec = infer_spec(&p, sym("append"), &preds()).expect("supported");
        assert_eq!(spec.pre.to_string(), "sll(x) * sll(y)");
        assert_eq!(spec.posts.len(), 2);
        for (_, post) in &spec.posts {
            assert!(post.to_string().contains("sll(res)"), "{post}");
        }
    }

    #[test]
    fn infers_tree_insert() {
        let p = parse_program(
            "struct TNode { left: TNode*; right: TNode*; data: int; }
             fn insert(t: TNode*, k: int) -> TNode* {
                 if (t == null) { return new TNode { data: k }; }
                 if (k < t->data) { t->left = insert(t->left, k); }
                 else { t->right = insert(t->right, k); }
                 return t;
             }",
        )
        .unwrap();
        check_program(&p).unwrap();
        let spec = infer_spec(&p, sym("insert"), &preds()).expect("supported");
        assert!(spec.pre.to_string().contains("tree(t)"));
    }

    #[test]
    fn rejects_loops() {
        let p = parse_program(
            "struct SNode { next: SNode*; data: int; }
             fn len(x: SNode*) -> int {
                 var n: int = 0;
                 while (x != null) { n = n + 1; x = x->next; }
                 return n;
             }",
        )
        .unwrap();
        check_program(&p).unwrap();
        assert!(matches!(
            infer_spec(&p, sym("len"), &preds()),
            Err(Unsupported::Loop)
        ));
    }

    #[test]
    fn rejects_dll_without_unary_pred() {
        let p = parse_program(
            "struct DNode { next: DNode*; prev: DNode*; }
             fn id(x: DNode*) -> DNode* { return x; }",
        )
        .unwrap();
        check_program(&p).unwrap();
        assert!(matches!(
            infer_spec(&p, sym("id"), &preds()),
            Err(Unsupported::NoShapePredicate(_))
        ));
    }

    #[test]
    fn infers_dispose() {
        let p = parse_program(
            "struct SNode { next: SNode*; data: int; }
             fn dispose(x: SNode*) {
                 if (x == null) { return; }
                 dispose(x->next);
                 free(x);
                 return;
             }",
        )
        .unwrap();
        check_program(&p).unwrap();
        let spec = infer_spec(&p, sym("dispose"), &preds()).expect("supported");
        assert_eq!(spec.pre.to_string(), "sll(x)");
        // Both exits leave the empty heap.
        for (_, post) in &spec.posts {
            assert_eq!(post.to_string(), "emp");
        }
    }
}
