//! A differential test of the checker against a brute-force reference
//! checker for tiny heaps.
//!
//! The reference shares no code with the checker's search. It decides
//! whether a predicate instance holds on a sub-heap straight from the
//! definition: each case's points-to atoms take cells of the sub-heap,
//! and its predicate atoms hold on a split of the rest, recursively. The
//! libraries are productive (every case with a predicate atom also has a
//! points-to, which `Reference::new` asserts), so each recursive question
//! is about a strictly smaller sub-heap and the recursion terminates.
//! Binders and existentials range over the model's values: `nil`, the
//! cell addresses, and the values in fields and on the stack. The
//! libraries' pure atoms are all equalities, so the variables that hold
//! a value outside that set are equal only to each other, and `nil` can
//! take its place.
//!
//! A formula's answer is the largest number of cells that some sub-heap
//! and some instantiation of its existentials cover exactly, which is the
//! reduction with the smallest residue that the checker returns.
//!
//! The same reference vouches for the predicates' footprint summaries
//! (`sling_logic::Footprints`): a single-atom formula whose known
//! argument breaks a fact of its parameter on the model's heap must
//! cover no cell.

use std::collections::{BTreeSet, HashMap};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sling_checker::CheckCtx;
use sling_logic::{
    parse_formula, parse_predicates, Expr, FieldDef, FieldTy, Footprints, ParamFacts, PredEnv,
    PureAtom, SpatialAtom, StructDef, SymHeap, Symbol, TypeEnv,
};
use sling_models::{Heap, HeapCell, Loc, Stack, StackHeapModel, Val};

/// A corpus predicate library whose parameters are all pointers, with
/// the structures it reads. The text is the corpus's own (the
/// `sling-suite` predicate sources), which this crate cannot depend on.
struct Library {
    name: &'static str,
    /// The structures, as `Name { field: Type*, field: int }` in a row.
    structs: &'static str,
    preds: &'static str,
}

const LIBRARIES: &[Library] = &[
    Library {
        name: "sll",
        structs: "SNode { next: SNode*, data: int }",
        preds: "pred sll(x: SNode*) := emp & x == nil
                  | exists u, d. x -> SNode{next: u, data: d} * sll(u);
                pred lseg(x: SNode*, y: SNode*) := emp & x == y
                  | exists u, d. x -> SNode{next: u, data: d} * lseg(u, y);",
    },
    Library {
        name: "dll",
        structs: "DNode { next: DNode*, prev: DNode*, data: int }",
        preds: "pred dll(hd: DNode*, pr: DNode*, tl: DNode*, nx: DNode*) :=
                    emp & hd == nx & pr == tl
                  | exists u, d. hd -> DNode{next: u, prev: pr, data: d} * dll(u, hd, tl, nx);",
    },
    Library {
        name: "circular",
        structs: "CNode { next: CNode*, data: int }",
        preds: "pred clseg(x: CNode*, y: CNode*) := emp & x == y
                  | exists u, d. x -> CNode{next: u, data: d} * clseg(u, y);
                pred cll(x: CNode*) := emp & x == nil
                  | exists u, d. x -> CNode{next: u, data: d} * clseg(u, x);",
    },
    Library {
        name: "glib_dll",
        structs: "GNode { next: GNode*, prev: GNode*, data: int }",
        preds: "pred gdll(hd: GNode*, pr: GNode*, tl: GNode*, nx: GNode*) :=
                    emp & hd == nx & pr == tl
                  | exists u, d. hd -> GNode{next: u, prev: pr, data: d} * gdll(u, hd, tl, nx);",
    },
    Library {
        name: "glib_sll",
        structs: "GsNode { next: GsNode*, data: int }",
        preds: "pred gsll(x: GsNode*) := emp & x == nil
                  | exists u, d. x -> GsNode{next: u, data: d} * gsll(u);
                pred gslseg(x: GsNode*, y: GsNode*) := emp & x == y
                  | exists u, d. x -> GsNode{next: u, data: d} * gslseg(u, y);",
    },
    Library {
        name: "queue",
        structs: "QNode { next: QNode*, data: int } Queue { first: QNode*, last: QNode* }",
        preds: "pred qseg(x: QNode*, y: QNode*) := emp & x == y
                  | exists u, d. x -> QNode{next: u, data: d} * qseg(u, y);
                pred queue(h: QNode*, t: QNode*) :=
                    exists d. h -> QNode{next: nil, data: d} & h == t
                  | exists u, d. h -> QNode{next: u, data: d} * queue(u, t);
                pred wq(q: Queue*) := q -> Queue{first: nil, last: nil}
                  | exists f, l. q -> Queue{first: f, last: l} * queue(f, l);",
    },
    Library {
        name: "svcomp",
        structs: "Slave { next: Slave* } Master { next: Master*, slave: Slave* }",
        preds: "pred slist(s: Slave*) := emp & s == nil
                  | exists u. s -> Slave{next: u} * slist(u);
                pred mlist(m: Master*) := emp & m == nil
                  | exists n, s. m -> Master{next: n, slave: s} * slist(s) * mlist(n);",
    },
    Library {
        name: "afwp_sll",
        structs: "ANode { next: ANode*, data: int }",
        preds: "pred asll(x: ANode*) := emp & x == nil
                  | exists u, d. x -> ANode{next: u, data: d} * asll(u);
                pred alseg(x: ANode*, y: ANode*) := emp & x == y
                  | exists u, d. x -> ANode{next: u, data: d} * alseg(u, y);",
    },
    Library {
        name: "afwp_dll",
        structs: "AdNode { next: AdNode*, prev: AdNode* }",
        preds: "pred adll(hd: AdNode*, pr: AdNode*, tl: AdNode*, nx: AdNode*) :=
                    emp & hd == nx & pr == tl
                  | exists u. hd -> AdNode{next: u, prev: pr} * adll(u, hd, tl, nx);
                pred adsll(x: AdNode*) := emp & x == nil
                  | exists u, p. x -> AdNode{next: u, prev: p} * adsll(u);",
    },
    Library {
        name: "cyclist",
        structs: "SwNode { left: SwNode*, right: SwNode*, mark: int } \
                  Frame { below: Frame*, val: int } \
                  CompNode { left: CompNode*, right: CompNode*, parent: CompNode*, data: int } \
                  Item { next: Item*, data: int }",
        preds: "pred swtree(t: SwNode*) := emp & t == nil
                  | exists l, r, m. t -> SwNode{left: l, right: r, mark: m}
                      * swtree(l) * swtree(r);
                pred frames(s: Frame*) := emp & s == nil
                  | exists n, v. s -> Frame{below: n, val: v} * frames(n);
                pred comp(t: CompNode*, p: CompNode*) := emp & t == nil
                  | exists l, r, d. t -> CompNode{left: l, right: r, parent: p, data: d}
                      * comp(l, t) * comp(r, t);
                pred items(x: Item*) := emp & x == nil
                  | exists u, d. x -> Item{next: u, data: d} * items(u);",
    },
    Library {
        name: "tree",
        structs: "TNode { left: TNode*, right: TNode*, data: int }",
        preds: "pred tree(t: TNode*) := emp & t == nil
                  | exists l, r, d. t -> TNode{left: l, right: r, data: d} * tree(l) * tree(r);
                pred rlist(t: TNode*) := emp & t == nil
                  | exists r, d. t -> TNode{left: nil, right: r, data: d} * rlist(r);",
    },
];

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

impl Library {
    fn structs(&self) -> Vec<StructDef> {
        let decls = self.structs.split('}').filter(|d| !d.trim().is_empty());
        decls
            .map(|decl| {
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
                StructDef {
                    name: sym(name.trim()),
                    fields,
                }
            })
            .collect()
    }

    fn envs(&self) -> (TypeEnv, PredEnv) {
        let mut types = TypeEnv::new();
        for def in self.structs() {
            types.define(def).unwrap();
        }
        let mut preds = PredEnv::new();
        for def in parse_predicates(self.preds).unwrap() {
            preds.define(def).unwrap();
        }
        (types, preds)
    }
}

/// Variables in scope while a case or formula is decided; a later entry
/// shadows an earlier one of the same name, and `None` is not yet bound.
type Env = Vec<(Symbol, Option<Val>)>;

/// The brute-force reference checker over one model.
struct Reference<'a> {
    types: &'a TypeEnv,
    preds: &'a PredEnv,
    stack: &'a Stack,
    /// The model's cells; bit `i` of a sub-heap stands for `cells[i]`.
    cells: Vec<(Loc, &'a HeapCell)>,
    /// The values binders and existentials range over.
    values: Vec<Val>,
    /// `(predicate, arguments, sub-heap)` → whether the instance holds
    /// on exactly that sub-heap.
    holds: HashMap<(Symbol, Vec<Val>, u32), bool>,
    /// `(predicate, arguments)` → the set of sub-heaps it holds on, one
    /// bit per sub-heap.
    heaps: HashMap<(Symbol, Vec<Val>), u64>,
}

impl<'a> Reference<'a> {
    fn new(types: &'a TypeEnv, preds: &'a PredEnv, model: &'a StackHeapModel) -> Reference<'a> {
        for def in preds.iter() {
            for case in &def.cases {
                let has = |points_to| {
                    case.spatial
                        .iter()
                        .any(|a| matches!(a, SpatialAtom::PointsTo { .. }) == points_to)
                };
                assert!(!has(false) || has(true), "{} is not productive", def.name);
            }
        }
        let cells: Vec<(Loc, &HeapCell)> = model.heap.iter().collect();
        assert!(cells.len() <= 5, "the reference enumerates sub-heaps");
        let mut values = BTreeSet::from([Val::Nil]);
        for &(loc, cell) in &cells {
            values.insert(Val::Addr(loc));
            values.extend(cell.fields.iter().copied());
        }
        values.extend(model.stack.iter().map(|(_, v)| v));
        Reference {
            types,
            preds,
            stack: &model.stack,
            cells,
            values: values.into_iter().collect(),
            holds: HashMap::new(),
            heaps: HashMap::new(),
        }
    }

    /// The most cells `f` covers exactly under some instantiation of its
    /// existentials, or `None` if it covers no sub-heap at all. Free
    /// variables the stack does not bind count as existentials, and an
    /// existential shadows a stack variable of the same name.
    fn check(&mut self, f: &SymHeap) -> Option<usize> {
        let mut env: Env = Vec::new();
        let mut open = Vec::new();
        for v in f.all_vars() {
            let val = if f.exists.contains(&v) {
                None
            } else {
                self.stack.get(v)
            };
            if val.is_none() {
                open.push(env.len());
            }
            env.push((v, val));
        }
        self.best_instance(f, &mut env, &open)
    }

    /// The most cells `f` covers over every value of the `open` slots of
    /// `env`.
    fn best_instance(&mut self, f: &SymHeap, env: &mut Env, open: &[usize]) -> Option<usize> {
        if let Some((&slot, rest)) = open.split_first() {
            let mut best = None;
            for k in 0..self.values.len() {
                env[slot].1 = Some(self.values[k]);
                best = best.max(self.best_instance(f, env, rest));
            }
            env[slot].1 = None;
            return best;
        }
        if !f.pure.iter().all(|p| pure_holds(p, env)) {
            return None;
        }
        // Bit `s` of `covered`: the atoms so far hold on sub-heap `s`.
        let mut covered: u64 = 1; // emp holds on the empty heap
        for atom in &f.spatial {
            let heaps = self.atom_heaps(atom, env);
            covered = star(covered, heaps, self.cells.len());
        }
        (0..1u32 << self.cells.len())
            .filter(|&s| covered >> s & 1 == 1)
            .map(|s| s.count_ones() as usize)
            .max()
    }

    /// The sub-heaps a predicate atom whose variables are all bound holds
    /// on.
    fn atom_heaps(&mut self, atom: &SpatialAtom, env: &Env) -> u64 {
        let SpatialAtom::Pred { name, args } = atom else {
            unreachable!("the formulas have predicate atoms only");
        };
        let args: Vec<Val> = args.iter().map(|a| eval(a, env).unwrap()).collect();
        if let Some(&heaps) = self.heaps.get(&(*name, args.clone())) {
            return heaps;
        }
        let mut heaps = 0;
        for s in 0..1u32 << self.cells.len() {
            if self.pred_holds(*name, &args, s) {
                heaps |= 1 << s;
            }
        }
        self.heaps.insert((*name, args), heaps);
        heaps
    }

    /// True if `name(args)` holds on exactly the sub-heap `heap`.
    fn pred_holds(&mut self, name: Symbol, args: &[Val], heap: u32) -> bool {
        let key = (name, args.to_vec(), heap);
        if let Some(&holds) = self.holds.get(&key) {
            return holds;
        }
        let def = self.preds.get(name).expect("defined predicate");
        assert_eq!(def.arity(), args.len(), "{name} arity");
        let mut holds = false;
        for case in &def.cases {
            let mut env: Env = def
                .params
                .iter()
                .map(|p| p.name)
                .zip(args.iter().map(|&a| Some(a)))
                .collect();
            env.extend(case.exists.iter().map(|&b| (b, None)));
            // Points-to atoms first: they bind the binders the predicate
            // atoms then take as arguments, and leave those atoms a
            // strictly smaller sub-heap.
            let mut atoms: Vec<&SpatialAtom> = case.spatial.iter().collect();
            atoms.sort_by_key(|a| matches!(a, SpatialAtom::Pred { .. }));
            if self.case_holds(&atoms, &case.pure, &mut env, heap) {
                holds = true;
                break;
            }
        }
        self.holds.insert(key, holds);
        holds
    }

    /// True if the atoms and the pure part hold on exactly `heap` under
    /// some values of the variables `env` leaves unbound.
    fn case_holds(
        &mut self,
        atoms: &[&SpatialAtom],
        pure: &[PureAtom],
        env: &mut Env,
        heap: u32,
    ) -> bool {
        let Some((&atom, rest)) = atoms.split_first() else {
            return heap == 0 && self.pure_sat(pure, env);
        };
        // A root or argument that is still unbound is tried at every
        // value.
        let mut needed = Vec::new();
        match atom {
            SpatialAtom::PointsTo { root, .. } => root.free_vars_into(&mut needed),
            SpatialAtom::Pred { args, .. } => {
                args.iter().for_each(|a| a.free_vars_into(&mut needed))
            }
        }
        if let Some(slot) = needed.iter().find_map(|&v| unbound(env, v)) {
            let mut found = false;
            for k in 0..self.values.len() {
                env[slot].1 = Some(self.values[k]);
                if self.case_holds(atoms, pure, env, heap) {
                    found = true;
                    break;
                }
            }
            env[slot].1 = None;
            return found;
        }
        match atom {
            SpatialAtom::PointsTo { .. } => {
                let saved = env.clone();
                let found = match self.take_cell(atom, env, heap) {
                    Some(left) => self.case_holds(rest, pure, env, left),
                    None => false,
                };
                *env = saved;
                found
            }
            SpatialAtom::Pred { name, args } => {
                let args: Vec<Val> = args.iter().map(|a| eval(a, env).unwrap()).collect();
                // Every split of `heap` into this atom's part and the rest.
                let mut part = heap;
                loop {
                    if self.pred_holds(*name, &args, part)
                        && self.case_holds(rest, pure, env, heap & !part)
                    {
                        return true;
                    }
                    if part == 0 {
                        return false;
                    }
                    part = (part - 1) & heap;
                }
            }
        }
    }

    /// Matches a points-to atom with a bound root against its cell in
    /// `heap`, binding the unbound field variables. Returns the rest of
    /// the heap, or `None` if the cell is missing, of another type, or
    /// holds other values.
    fn take_cell(&self, atom: &SpatialAtom, env: &mut Env, heap: u32) -> Option<u32> {
        let SpatialAtom::PointsTo { root, ty, fields } = atom else {
            unreachable!("a points-to atom");
        };
        let Val::Addr(loc) = eval(root, env)? else {
            return None;
        };
        let i = self.cells.iter().position(|&(l, _)| l == loc)?;
        let cell = self.cells[i].1;
        if heap >> i & 1 == 0 || cell.ty != *ty {
            return None;
        }
        let def = self.types.get(*ty)?;
        for fa in fields {
            let actual = *cell.fields.get(def.field_index(fa.name)?)?;
            match fa.value.as_var().and_then(|v| unbound(env, v)) {
                Some(slot) => env[slot].1 = Some(actual),
                None if eval(&fa.value, env)? == actual => {}
                None => return None,
            }
        }
        Some(heap & !(1 << i))
    }

    /// True if the pure atoms hold under some values of the unbound
    /// variables they mention.
    fn pure_sat(&self, pure: &[PureAtom], env: &mut Env) -> bool {
        let mut needed = Vec::new();
        pure.iter().for_each(|p| p.free_vars_into(&mut needed));
        let Some(slot) = needed.iter().find_map(|&v| unbound(env, v)) else {
            return pure.iter().all(|p| pure_holds(p, env));
        };
        let found = self.values.iter().any(|&val| {
            env[slot].1 = Some(val);
            self.pure_sat(pure, env)
        });
        env[slot].1 = None;
        found
    }
}

/// The slot of `v` in `env` if it is in scope and unbound.
fn unbound(env: &Env, v: Symbol) -> Option<usize> {
    let slot = env.iter().rposition(|&(name, _)| name == v)?;
    env[slot].1.is_none().then_some(slot)
}

/// The value of `nil` or of a bound variable; the libraries use no
/// integer literals or arithmetic.
fn eval(e: &Expr, env: &Env) -> Option<Val> {
    match e {
        Expr::Nil => Some(Val::Nil),
        Expr::Var(v) => env.iter().rev().find(|&&(name, _)| name == *v)?.1,
        _ => panic!("no literals or arithmetic in the libraries: {e}"),
    }
}

/// Whether an equality over bound variables holds. The libraries' pure
/// atoms are all equalities, which the module doc's argument for
/// instantiating over the model's values needs.
fn pure_holds(p: &PureAtom, env: &Env) -> bool {
    let PureAtom::Eq(a, b) = p else {
        panic!("not an equality: {p}");
    };
    let (Some(a), Some(b)) = (eval(a, env), eval(b, env)) else {
        panic!("pure atom with unbound variables: {p}");
    };
    a == b
}

/// The separating conjunction of two sets of sub-heaps of `n` cells: the
/// sub-heaps that split into a member of `a` and a member of `b`.
fn star(a: u64, b: u64, n: usize) -> u64 {
    let mut out = 0;
    for s in 0..1u32 << n {
        let mut part = s;
        loop {
            if a >> part & 1 == 1 && b >> (s & !part) & 1 == 1 {
                out |= 1 << s;
                break;
            }
            if part == 0 {
                break;
            }
            part = (part - 1) & s;
        }
    }
    out
}

/// A model of at most five cells of the library's structures, at
/// addresses `1..=n`. Half the models are random graphs; the other half
/// are shaped: each cell's first pointer goes to the next address, `prev`
/// and `parent` go to the previous one, the remaining pointers are `nil`
/// or random, and one field may then be redirected. Some pointers leave
/// the heap.
fn random_model(lib: &Library, rng: &mut StdRng) -> StackHeapModel {
    let n = rng.gen_range(0..=5u64);
    let any = |rng: &mut StdRng| match rng.gen_range(0..8) {
        0 => Val::Nil,
        1 => Val::Addr(Loc::new(9)),
        _ if n == 0 => Val::Nil,
        _ => Val::Addr(Loc::new(rng.gen_range(1..=n))),
    };
    let at = |k: u64| match k {
        1.. if k <= n => Val::Addr(Loc::new(k)),
        _ => Val::Nil,
    };
    let structs = lib.structs();
    let shaped = rng.gen_bool(0.5);
    let main = rng.gen_range(0..structs.len());
    let mut heap = Heap::new();
    for k in 1..=n {
        let def = if shaped && rng.gen_bool(0.7) {
            &structs[main]
        } else {
            &structs[rng.gen_range(0..structs.len())]
        };
        let values = def
            .fields
            .iter()
            .enumerate()
            .map(|(j, field)| match field.ty {
                FieldTy::Int => Val::Int(rng.gen_range(0..2i64)),
                _ if !shaped => any(rng),
                _ if j == 0 => at(k + 1),
                _ if [sym("prev"), sym("parent")].contains(&field.name) => at(k - 1),
                _ if rng.gen_bool(0.5) => Val::Nil,
                _ => any(rng),
            })
            .collect();
        heap.insert(Loc::new(k), HeapCell::new(def.name, values));
    }
    if shaped && n > 0 && rng.gen_bool(0.3) {
        let loc = Loc::new(rng.gen_range(1..=n));
        let mut cell = heap.get(loc).unwrap().clone();
        let j = rng.gen_range(0..cell.fields.len());
        if cell.fields[j].is_pointer() {
            cell.fields[j] = any(rng);
            heap.insert(loc, cell);
        }
    }
    let mut stack = Stack::new();
    let x = if rng.gen_bool(0.5) { at(1) } else { any(rng) };
    stack.bind(sym("x"), x);
    stack.bind(sym("y"), any(rng));
    StackHeapModel::new(stack, heap)
}

/// `atoms` predicate atoms of the library, in random order, whose
/// arguments are stack variables, `nil` or one of three existentials.
fn random_formula(preds: &PredEnv, atoms: usize, rng: &mut StdRng) -> SymHeap {
    let defs: Vec<_> = preds.iter().collect();
    let names = ["x", "y", "nil", "e1", "e2", "e3"];
    let atoms: Vec<String> = (0..atoms)
        .map(|_| {
            let def = defs[rng.gen_range(0..defs.len())];
            let args: Vec<&str> = (0..def.arity())
                .map(|_| names[rng.gen_range(0..names.len())])
                .collect();
            format!("{}({})", def.name, args.join(", "))
        })
        .collect();
    let body = atoms.join(" * ");
    let exists: Vec<&str> = ["e1", "e2", "e3"]
        .into_iter()
        .filter(|e| body.contains(e))
        .collect();
    let text = if exists.is_empty() {
        body
    } else {
        format!("exists {}. {body}", exists.join(", "))
    };
    parse_formula(&text).unwrap()
}

/// Checks `f` on `model` with both checkers and requires the same
/// verdict and coverage; returns the coverage.
fn agree(
    lib: &Library,
    types: &TypeEnv,
    preds: &PredEnv,
    model: &StackHeapModel,
    f: &SymHeap,
) -> Option<usize> {
    let expect = Reference::new(types, preds, model).check(f);
    let got = CheckCtx::new(types, preds)
        .check(model, f)
        .map(|r| r.covered);
    assert_eq!(got, expect, "{}: {f} on {model}", lib.name);
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn search_agrees_with_the_reference(lib in 0..LIBRARIES.len(), seed in any::<u64>()) {
        let lib = &LIBRARIES[lib];
        let (types, preds) = lib.envs();
        let mut rng = StdRng::seed_from_u64(seed);
        let model = random_model(lib, &mut rng);
        for _ in 0..3 {
            let atoms = rng.gen_range(1..=2);
            agree(lib, &types, &preds, &model, &random_formula(&preds, atoms, &mut rng));
        }
    }
}

/// True if the single atom of `f` has a known argument (`nil`, or a
/// variable `model`'s stack binds) that breaks a fact of its parameter
/// in `footprints`: it is not a cell's address where `alloc` holds, or
/// no cell of a `refs` fact's type holds it in that field. This states
/// the facts over the whole heap, apart from the inference code that
/// reads them.
fn flagged(footprints: &Footprints, model: &StackHeapModel, f: &SymHeap) -> bool {
    let [SpatialAtom::Pred { name, args }] = &f.spatial[..] else {
        panic!("a single predicate atom: {f}");
    };
    let Some(facts) = footprints.covering(*name) else {
        return true;
    };
    let breaks = |facts: &ParamFacts, val: Val| {
        let allocated = matches!(val, Val::Addr(loc) if model.heap.get(loc).is_some());
        let held = |ty: Symbol, field: usize| {
            model
                .heap
                .iter()
                .any(|(_, cell)| cell.ty == ty && cell.fields.get(field) == Some(&val))
        };
        (facts.alloc && !allocated) || facts.refs.iter().any(|r| !held(r.ty, r.field))
    };
    args.iter().zip(facts).any(|(arg, facts)| {
        let known = match arg {
            Expr::Nil => Some(Val::Nil),
            Expr::Var(v) if !f.exists.contains(v) => model.stack.get(*v),
            _ => None,
        };
        known.is_some_and(|val| breaks(facts, val))
    })
}

/// A library whose two cases imply different facts (each parameter is
/// allocated in one case and a `next` in the other, so neither fact
/// holds of every instance): the corpus libraries' cases agree, and
/// only this one shows whether facts are intersected over cases.
const EITHER: Library = Library {
    name: "either",
    structs: "ENode { next: ENode*, data: int }",
    preds: "pred either(x: ENode*, y: ENode*) := exists d. x -> ENode{next: y, data: d}
              | exists d. y -> ENode{next: x, data: d};",
};

/// The footprint summaries are sound: every random single-atom formula
/// they flag on a random model covers no cell there, in the reference
/// and in the checker. The floor on flagged formulas keeps the test
/// from passing on a summary that flags nothing.
#[test]
fn footprints_flag_only_formulas_that_cover_no_cell() {
    let libraries: Vec<&Library> = LIBRARIES.iter().chain([&EITHER]).collect();
    let (mut formulas, mut flagged_count) = (0, 0);
    for seed in 0..2_000u64 {
        let lib = libraries[seed as usize % libraries.len()];
        let (types, preds) = lib.envs();
        let footprints = Footprints::new(&types, &preds);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = random_model(lib, &mut rng);
        for _ in 0..6 {
            let f = random_formula(&preds, 1, &mut rng);
            formulas += 1;
            if !flagged(&footprints, &model, &f) {
                continue;
            }
            flagged_count += 1;
            let covered = agree(lib, &types, &preds, &model, &f);
            assert!(
                covered.unwrap_or(0) == 0,
                "{}: flagged {f} covers {covered:?} cell(s) of {model}",
                lib.name
            );
        }
    }
    assert!(
        flagged_count >= FLAGGED_FLOOR,
        "only {flagged_count} of {formulas} formulas flagged"
    );
}

/// Formulas the test above must flag, of 12,000 (it flags 4,718).
const FLAGGED_FLOOR: usize = 4_500;

/// Requires both checkers to cover the whole heap `cells` (at addresses
/// `1..`, with `x` on the first) with each of `formulas`.
fn agree_on_whole_heap(lib: &str, cells: &[(&str, Vec<Val>)], formulas: &[&str]) {
    let lib = LIBRARIES.iter().find(|l| l.name == lib).unwrap();
    let (types, preds) = lib.envs();
    let mut heap = Heap::new();
    for (k, (ty, fields)) in (1..).zip(cells) {
        heap.insert(Loc::new(k), HeapCell::new(sym(ty), fields.clone()));
    }
    let mut stack = Stack::new();
    stack.bind(sym("x"), Val::Addr(Loc::new(1)));
    let model = StackHeapModel::new(stack, heap);
    for f in formulas {
        let covered = agree(lib, &types, &preds, &model, &parse_formula(f).unwrap());
        assert_eq!(covered, Some(cells.len()), "{f}");
    }
}

/// Shapes that once split the two checkers or that random models rarely
/// reach: the `cyclist/composite4` exit invariant in both atom orders
/// (the search used to unfold its all-unbound atom until fuel ran out),
/// two lists with unbound ends, and two segments that cover a chain.
#[test]
fn search_agrees_with_the_reference_on_fixed_shapes() {
    let addr = |k: u64| Val::Addr(Loc::new(k));
    let (nil, zero) = (Val::Nil, Val::Int(0));
    agree_on_whole_heap(
        "cyclist",
        &[
            ("CompNode", vec![addr(2), nil, nil, Val::Int(3)]),
            ("CompNode", vec![nil, nil, addr(1), Val::Int(4)]),
        ],
        &[
            "exists u1. comp(u1, nil) * comp(nil, nil)",
            "exists u1. comp(nil, nil) * comp(u1, nil)",
        ],
    );
    agree_on_whole_heap(
        "dll",
        &[
            ("DNode", vec![addr(2), nil, zero]),
            ("DNode", vec![addr(3), addr(1), zero]),
            ("DNode", vec![nil, addr(2), zero]),
            ("DNode", vec![addr(5), nil, zero]),
            ("DNode", vec![nil, addr(4), zero]),
        ],
        &[
            "exists a, b, c, d. dll(a, nil, b, nil) * dll(c, nil, d, nil)",
            "exists a, b, c, d. dll(c, nil, d, nil) * dll(a, nil, b, nil)",
        ],
    );
    let chain: Vec<_> = (2..=5)
        .map(addr)
        .chain([nil])
        .map(|next| ("GsNode", vec![next, zero]))
        .collect();
    agree_on_whole_heap(
        "glib_sll",
        &chain,
        &[
            "exists u1, u2, u3. gslseg(u1, u2) * gslseg(u3, u1)",
            "exists u1, u2. gslseg(u2, u1) * gsll(u1)",
        ],
    );
}
