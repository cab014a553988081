//! Integration tests for the model checker, built around the paper's §2
//! `concat` example (Figures 2–3) and a collection of standard structures.

use sling_checker::{CheckConfig, CheckCtx};
use sling_logic::{
    parse_formula, parse_predicates, FieldDef, FieldTy, PredEnv, StructDef, Symbol, TypeEnv,
};
use sling_models::{Heap, HeapCell, Loc, Stack, StackHeapModel, Val};

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

fn l(n: u64) -> Loc {
    Loc::new(n)
}

fn node_types() -> TypeEnv {
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
    let cell = sym("Cell");
    types
        .define(StructDef {
            name: cell,
            fields: vec![
                FieldDef {
                    name: sym("next"),
                    ty: FieldTy::Ptr(cell),
                },
                FieldDef {
                    name: sym("data"),
                    ty: FieldTy::Int,
                },
            ],
        })
        .unwrap();
    let tree = sym("Tree");
    types
        .define(StructDef {
            name: tree,
            fields: vec![
                FieldDef {
                    name: sym("left"),
                    ty: FieldTy::Ptr(tree),
                },
                FieldDef {
                    name: sym("right"),
                    ty: FieldTy::Ptr(tree),
                },
            ],
        })
        .unwrap();
    types
}

fn preds() -> PredEnv {
    let mut env = PredEnv::new();
    for def in parse_predicates(
        r#"
        pred dll(hd: Node*, pr: Node*, tl: Node*, nx: Node*) :=
            emp & hd == nx & pr == tl
          | exists u. hd -> Node{next: u, prev: pr} * dll(u, hd, tl, nx);

        pred sll(x: Cell*) :=
            emp & x == nil
          | exists u, d. x -> Cell{next: u, data: d} * sll(u);

        pred lseg(x: Cell*, y: Cell*) :=
            emp & x == y
          | exists u, d. x -> Cell{next: u, data: d} * lseg(u, y);

        pred srtl(x: Cell*, min: int) :=
            emp & x == nil
          | exists u, d. x -> Cell{next: u, data: d} * srtl(u, d) & min <= d;

        pred tree(t: Tree*) :=
            emp & t == nil
          | exists lf, rt. t -> Tree{left: lf, right: rt} * tree(lf) * tree(rt);
        "#,
    )
    .unwrap()
    {
        env.define(def).unwrap();
    }
    env
}

/// Doubly linked list cell.
fn dcell(next: Val, prev: Val) -> HeapCell {
    HeapCell::new(sym("Node"), vec![next, prev])
}

/// Singly linked list cell with data.
fn scell(next: Val, data: i64) -> HeapCell {
    HeapCell::new(sym("Cell"), vec![next, Val::Int(data)])
}

/// The Figure 2(a) heap: x = 0x01 -> 0x02 -> 0x03 (dll), y = 0x04 -> 0x05
/// (dll), both nil-terminated both ways.
fn fig2a() -> StackHeapModel {
    let mut heap = Heap::new();
    heap.insert(l(1), dcell(Val::Addr(l(2)), Val::Nil));
    heap.insert(l(2), dcell(Val::Addr(l(3)), Val::Addr(l(1))));
    heap.insert(l(3), dcell(Val::Nil, Val::Addr(l(2))));
    heap.insert(l(4), dcell(Val::Addr(l(5)), Val::Nil));
    heap.insert(l(5), dcell(Val::Nil, Val::Addr(l(4))));
    let mut stack = Stack::new();
    stack.bind(sym("x"), Val::Addr(l(1)));
    stack.bind(sym("y"), Val::Addr(l(4)));
    StackHeapModel::new(stack, heap)
}

/// The Figure 2(b) heap after the full concatenation: 0x01..0x05 one dll.
/// Stack for iteration `i` (1-based as in the figure).
fn fig2b(iteration: usize) -> StackHeapModel {
    let mut heap = Heap::new();
    heap.insert(l(1), dcell(Val::Addr(l(2)), Val::Nil));
    heap.insert(l(2), dcell(Val::Addr(l(3)), Val::Addr(l(1))));
    heap.insert(l(3), dcell(Val::Addr(l(4)), Val::Addr(l(2))));
    heap.insert(l(4), dcell(Val::Addr(l(5)), Val::Addr(l(3))));
    heap.insert(l(5), dcell(Val::Nil, Val::Addr(l(4))));
    let mut stack = Stack::new();
    let xi = iteration as u64;
    stack.bind(sym("x"), Val::Addr(l(xi)));
    stack.bind(sym("tmp"), Val::Addr(l(xi + 1)));
    stack.bind(sym("y"), Val::Addr(l(4)));
    stack.bind(sym("res"), Val::Addr(l(xi)));
    StackHeapModel::new(stack, heap)
}

#[test]
fn whole_heap_as_two_dlls() {
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    let m = fig2a();
    // The paper's precondition at L1.
    let f =
        parse_formula("exists u1, u2, u3, u4. dll(x, u1, u2, nil) * dll(y, u3, u4, nil)").unwrap();
    let red = ctx.check(&m, &f).expect("pre holds");
    assert_eq!(red.covered, 5);
    assert!(red.residual.is_empty());
    // The tails are instantiated: u2 = 0x03, u4 = 0x05.
    assert_eq!(red.inst.get(sym("u2")), Some(Val::Addr(l(3))));
    assert_eq!(red.inst.get(sym("u4")), Some(Val::Addr(l(5))));
    // The previous pointers are nil: u1 = u3 = nil.
    assert_eq!(red.inst.get(sym("u1")), Some(Val::Nil));
    assert_eq!(red.inst.get(sym("u3")), Some(Val::Nil));
}

#[test]
fn dll_segment_with_residue() {
    // Fx = ∃u1,u2. dll(x, u1, u2, tmp) over the full Figure 2(b) heap at
    // iteration 1: covers only cell 0x01; cells 0x02..0x05 are residue.
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    let m = fig2b(1);
    let f = parse_formula("exists u1, u2. dll(x, u1, u2, tmp)").unwrap();
    let red = ctx.check(&m, &f).expect("segment holds");
    assert_eq!(red.covered, 1);
    assert_eq!(red.residual.len(), 4);
    // tl is instantiated to x's cell itself (single-node segment).
    assert_eq!(red.inst.get(sym("u2")), Some(Val::Addr(l(1))));
}

#[test]
fn paper_final_invariant_checks_exactly() {
    // F'_L3 (§2.3): dll(x,u1,x,tmp) * dll(tmp,x,u3,y) * dll(y,u3,u5,nil)
    //               & res == x.
    // At iteration i the cells before x (i-1 of them) are *residue*: they
    // are exactly the frame the §4.4 validation reasons about.
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    for it in 1..=3 {
        let m = fig2b(it);
        let f = parse_formula(
            "exists u1, u3, u5. dll(x, u1, x, tmp) * dll(tmp, x, u3, y) * \
             dll(y, u3, u5, nil) & res == x",
        )
        .unwrap();
        let red = ctx
            .check(&m, &f)
            .unwrap_or_else(|| panic!("F'_L3 fails at iteration {it}"));
        assert_eq!(
            red.residual.len(),
            it - 1,
            "wrong residue at iteration {it}"
        );
        assert_eq!(red.covered, 5 - (it - 1));
        // ι instantiates u3 to x's tail-side neighbour of y.
        assert_eq!(red.inst.get(sym("u3")), Some(Val::Addr(l(3))));
        assert_eq!(red.inst.get(sym("u5")), Some(Val::Addr(l(5))));
    }
}

#[test]
fn wrong_formula_rejected() {
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    let m = fig2a();
    // x and y are *separate* lists: a single dll from x to nil cannot
    // cover y's cells, and claiming y == x's tail is false.
    let f = parse_formula("dll(x, nil, y, nil)").unwrap();
    let red = ctx.check(&m, &f);
    // The formula holds only with y's cells in the residue, and the tail
    // parameter must be 0x03, not y. So tl == y forces failure.
    assert!(red.is_none());
}

#[test]
fn res_equality_filters() {
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    let m = fig2b(1);
    assert!(ctx
        .check(&m, &parse_formula("emp & res == x").unwrap())
        .is_some());
    assert!(ctx
        .check(&m, &parse_formula("emp & res == y").unwrap())
        .is_none());
}

#[test]
fn sll_and_lseg() {
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    // x = 1 -> 2 -> 3 -> nil with data 10, 20, 30; y = 3.
    let mut heap = Heap::new();
    heap.insert(l(1), scell(Val::Addr(l(2)), 10));
    heap.insert(l(2), scell(Val::Addr(l(3)), 20));
    heap.insert(l(3), scell(Val::Nil, 30));
    let mut stack = Stack::new();
    stack.bind(sym("x"), Val::Addr(l(1)));
    stack.bind(sym("y"), Val::Addr(l(3)));
    let m = StackHeapModel::new(stack, heap);

    assert!(ctx.holds_exact(&m, &parse_formula("sll(x)").unwrap()));
    // lseg(x, y) covers 2 cells; residue is y's cell.
    let red = ctx
        .check(&m, &parse_formula("lseg(x, y)").unwrap())
        .unwrap();
    assert_eq!(red.covered, 2);
    assert_eq!(red.residual.domain(), [l(3)].into_iter().collect());
    // lseg(x, y) * sll(y) covers everything.
    assert!(ctx.holds_exact(&m, &parse_formula("lseg(x, y) * sll(y)").unwrap()));
    // sll(y) alone leaves 2 cells.
    let red = ctx.check(&m, &parse_formula("sll(y)").unwrap()).unwrap();
    assert_eq!(red.covered, 1);
}

#[test]
fn sorted_list_data_constraints() {
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    let mk = |a: i64, b: i64, c: i64| {
        let mut heap = Heap::new();
        heap.insert(l(1), scell(Val::Addr(l(2)), a));
        heap.insert(l(2), scell(Val::Addr(l(3)), b));
        heap.insert(l(3), scell(Val::Nil, c));
        let mut stack = Stack::new();
        stack.bind(sym("x"), Val::Addr(l(1)));
        StackHeapModel::new(stack, heap)
    };
    let f = parse_formula("exists m. srtl(x, m)").unwrap();
    assert!(
        ctx.check(&mk(1, 2, 3), &f).is_some(),
        "sorted list accepted"
    );
    assert!(
        ctx.check(&mk(3, 2, 1), &f).is_none(),
        "unsorted list rejected"
    );
    assert!(
        ctx.check(&mk(2, 2, 2), &f).is_some(),
        "non-strict order accepted"
    );
}

#[test]
fn tree_shapes() {
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    let t = sym("Tree");
    // Balanced 3-node tree.
    let mut heap = Heap::new();
    heap.insert(
        l(1),
        HeapCell::new(t, vec![Val::Addr(l(2)), Val::Addr(l(3))]),
    );
    heap.insert(l(2), HeapCell::new(t, vec![Val::Nil, Val::Nil]));
    heap.insert(l(3), HeapCell::new(t, vec![Val::Nil, Val::Nil]));
    let mut stack = Stack::new();
    stack.bind(sym("r"), Val::Addr(l(1)));
    let m = StackHeapModel::new(stack, heap);
    assert!(ctx.holds_exact(&m, &parse_formula("tree(r)").unwrap()));

    // A "tree" with sharing is NOT a tree (separation!): left and right
    // both point to 0x02.
    let mut heap = Heap::new();
    heap.insert(
        l(1),
        HeapCell::new(t, vec![Val::Addr(l(2)), Val::Addr(l(2))]),
    );
    heap.insert(l(2), HeapCell::new(t, vec![Val::Nil, Val::Nil]));
    let mut stack = Stack::new();
    stack.bind(sym("r"), Val::Addr(l(1)));
    let m = StackHeapModel::new(stack, heap);
    assert!(
        !ctx.holds_exact(&m, &parse_formula("tree(r)").unwrap()),
        "sharing must violate separation"
    );
}

#[test]
fn nil_list_is_base_case() {
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    let mut stack = Stack::new();
    stack.bind(sym("x"), Val::Nil);
    let m = StackHeapModel::new(stack, Heap::new());
    assert!(ctx.holds_exact(&m, &parse_formula("sll(x)").unwrap()));
    // But a points-to at nil never holds.
    assert!(ctx
        .check(&m, &parse_formula("x -> Cell{next: nil, data: d}").unwrap())
        .is_none());
}

#[test]
fn singleton_points_to_binds_fields() {
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    let mut heap = Heap::new();
    heap.insert(l(7), scell(Val::Addr(l(8)), 42));
    heap.insert(l(8), scell(Val::Nil, 43));
    let mut stack = Stack::new();
    stack.bind(sym("p"), Val::Addr(l(7)));
    let m = StackHeapModel::new(stack, heap);
    let f = parse_formula("exists n, d. p -> Cell{next: n, data: d}").unwrap();
    let red = ctx.check(&m, &f).unwrap();
    assert_eq!(red.covered, 1);
    assert_eq!(red.inst.get(sym("n")), Some(Val::Addr(l(8))));
    assert_eq!(red.inst.get(sym("d")), Some(Val::Int(42)));
}

#[test]
fn field_mismatch_rejected() {
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    let mut heap = Heap::new();
    heap.insert(l(7), scell(Val::Nil, 42));
    let mut stack = Stack::new();
    stack.bind(sym("p"), Val::Addr(l(7)));
    let m = StackHeapModel::new(stack, heap);
    assert!(ctx
        .check(
            &m,
            &parse_formula("p -> Cell{next: nil, data: 41}").unwrap()
        )
        .is_none());
    assert!(ctx
        .check(&m, &parse_formula("p -> Cell{next: p, data: 42}").unwrap())
        .is_none());
    assert!(ctx
        .check(
            &m,
            &parse_formula("p -> Cell{next: nil, data: 42}").unwrap()
        )
        .is_some());
}

#[test]
fn unbound_root_enumerates() {
    // ∃u1. dll(u1, nil, x, tmp): the *head* is existential; the checker
    // must discover u1 = 0x01 (the Algorithm 2 example in §4.2).
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    let m = fig2b(1);
    // x = 0x01, tmp = 0x02: dll from u1 with tail x and next tmp means the
    // one-cell segment [0x01].
    let f = parse_formula("exists u1. dll(u1, nil, x, tmp)").unwrap();
    let red = ctx.check(&m, &f).expect("head-existential segment holds");
    assert_eq!(red.inst.get(sym("u1")), Some(Val::Addr(l(1))));
    assert_eq!(red.covered, 1);
}

#[test]
fn circular_list_terminates() {
    // 1 -> 2 -> 1 cycle; sll must fail (never reaches nil) but terminate.
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    let mut heap = Heap::new();
    heap.insert(l(1), scell(Val::Addr(l(2)), 0));
    heap.insert(l(2), scell(Val::Addr(l(1)), 0));
    let mut stack = Stack::new();
    stack.bind(sym("x"), Val::Addr(l(1)));
    let m = StackHeapModel::new(stack, heap);
    assert!(ctx.check(&m, &parse_formula("sll(x)").unwrap()).is_none());
    // lseg(x, x) holds with empty coverage (base case x == x).
    let red = ctx
        .check(&m, &parse_formula("lseg(x, x)").unwrap())
        .unwrap();
    assert_eq!(red.covered, 2, "maximal match should go all the way around");
}

/// Sweeps the node budget over checks whose searches run out of it at
/// every depth. A truncated search returns the best carving found so far,
/// so the digest of every result pins the exploration order: which goal
/// is attacked first, which candidate cells are tried in which order,
/// which case of a predicate is unfolded first.
#[test]
fn budget_truncation_is_graceful() {
    let types = node_types();
    let preds = preds();
    let checks = [
        (fig2a(), "dll(x, nil, u, nil)"),
        (fig2a(), "exists a, b. dll(a, nil, b, nil)"),
        (
            fig2a(),
            "exists a, b, c, d. dll(a, nil, b, nil) * dll(c, nil, d, nil)",
        ),
        (fig2b(3), "exists u1, u2. dll(u1, nil, u2, nil)"),
    ];
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for (model, formula) in &checks {
        for node_budget in 1..=120 {
            let ctx = CheckCtx::new(&types, &preds).with_config(CheckConfig {
                node_budget,
                fuel_slack: 4,
            });
            let line = match ctx.check(model, &parse_formula(formula).unwrap()) {
                None => format!("{node_budget} none\n"),
                Some(r) => format!("{node_budget} {} {} {}\n", r.covered, r.residual, r.inst),
            };
            for byte in line.bytes() {
                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    assert_eq!(digest, 0xb203_22bb_adf5_6145, "digest {digest:016x}");
}

#[test]
fn pure_only_formulas() {
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    let m = fig2a();
    assert!(ctx
        .check(&m, &parse_formula("emp & x != y").unwrap())
        .is_some());
    assert!(ctx
        .check(&m, &parse_formula("emp & x == y").unwrap())
        .is_none());
    // Existential equated to a stack var gets instantiated.
    let red = ctx
        .check(&m, &parse_formula("exists a. emp & a == x").unwrap())
        .unwrap();
    assert_eq!(red.inst.get(sym("a")), Some(Val::Addr(l(1))));
}

#[test]
fn arithmetic_pure_atoms() {
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    let mut stack = Stack::new();
    stack.bind(sym("n"), Val::Int(10));
    stack.bind(sym("m"), Val::Int(4));
    let m = StackHeapModel::new(stack, Heap::new());
    assert!(ctx
        .check(&m, &parse_formula("emp & n == m + 6").unwrap())
        .is_some());
    assert!(ctx
        .check(&m, &parse_formula("emp & n < m").unwrap())
        .is_none());
    assert!(ctx
        .check(&m, &parse_formula("emp & m <= n - 6").unwrap())
        .is_some());
    assert!(ctx
        .check(&m, &parse_formula("emp & n == (3 * m) - 2").unwrap())
        .is_some());
}

#[test]
fn disjunction_exact() {
    let types = node_types();
    let preds = preds();
    let ctx = CheckCtx::new(&types, &preds);
    let m = fig2a();
    let f1 = parse_formula("emp & x == nil").unwrap();
    let f2 =
        parse_formula("exists u1, u2, u3, u4. dll(x, u1, u2, nil) * dll(y, u3, u4, nil)").unwrap();
    assert!(ctx.holds_exact_disj(&m, &[f1.clone(), f2.clone()]));
    assert!(!ctx.holds_exact_disj(&m, &[f1]));
}
