//! Property-based tests over the core data structures and invariants:
//! parser/printer round-trips, checker soundness on generated lists, and
//! SplitHeap partition laws.

use proptest::prelude::*;

use sling_checker::CheckCtx;
use sling_logic::{
    parse_formula, parse_predicates, FieldDef, FieldTy, PredEnv, StructDef, Symbol, TypeEnv,
};
use sling_models::{Heap, HeapCell, Loc, Stack, StackHeapModel, Val};

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

fn node_env() -> (TypeEnv, PredEnv) {
    let mut types = TypeEnv::new();
    let node = sym("PNodeT");
    types
        .define(StructDef {
            name: node,
            fields: vec![
                FieldDef {
                    name: sym("next"),
                    ty: FieldTy::Ptr(node),
                },
                FieldDef {
                    name: sym("data"),
                    ty: FieldTy::Int,
                },
            ],
        })
        .unwrap();
    let mut preds = PredEnv::new();
    for d in parse_predicates(
        "pred plist(x: PNodeT*) := emp & x == nil
           | exists u, d. x -> PNodeT{next: u, data: d} * plist(u);
         pred pseg(x: PNodeT*, y: PNodeT*) := emp & x == y
           | exists u, d. x -> PNodeT{next: u, data: d} * pseg(u, y);",
    )
    .unwrap()
    {
        preds.define(d).unwrap();
    }
    (types, preds)
}

/// Builds a list heap from a data vector; returns (heap, head).
fn list_heap(data: &[i64]) -> (Heap, Val) {
    let mut heap = Heap::new();
    let mut next = Val::Nil;
    for (i, &d) in data.iter().enumerate().rev() {
        let loc = Loc::new(i as u64 + 1);
        heap.insert(loc, HeapCell::new(sym("PNodeT"), vec![next, Val::Int(d)]));
        next = Val::Addr(loc);
    }
    (heap, next)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any nil-terminated list satisfies plist(x) exactly.
    #[test]
    fn checker_accepts_generated_lists(data in proptest::collection::vec(-50i64..50, 0..12)) {
        let (types, preds) = node_env();
        let ctx = CheckCtx::new(&types, &preds);
        let (heap, head) = list_heap(&data);
        let mut stack = Stack::new();
        stack.bind(sym("x"), head);
        let model = StackHeapModel::new(stack, heap);
        let f = parse_formula("plist(x)").unwrap();
        let red = ctx.check(&model, &f);
        prop_assert!(red.is_some());
        prop_assert!(red.unwrap().residual.is_empty());
    }

    /// pseg(x, m) * plist(m) covers a split list exactly, for every split
    /// point m.
    #[test]
    fn segment_split_covers(data in proptest::collection::vec(0i64..10, 1..10), split in 0usize..10) {
        let (types, preds) = node_env();
        let ctx = CheckCtx::new(&types, &preds);
        let (heap, head) = list_heap(&data);
        let split = split % (data.len() + 1);
        let mid = if split == data.len() {
            Val::Nil
        } else {
            Val::Addr(Loc::new(split as u64 + 1))
        };
        let mut stack = Stack::new();
        stack.bind(sym("x"), head);
        stack.bind(sym("m"), mid);
        let model = StackHeapModel::new(stack, heap);
        let f = parse_formula("pseg(x, m) * plist(m)").unwrap();
        let red = ctx.check(&model, &f);
        prop_assert!(red.is_some());
        prop_assert!(red.unwrap().residual.is_empty());
    }

    /// A cyclic list never satisfies plist.
    #[test]
    fn checker_rejects_cycles(n in 1usize..8) {
        let (types, preds) = node_env();
        let ctx = CheckCtx::new(&types, &preds);
        let mut heap = Heap::new();
        for i in 0..n {
            let next = Loc::new(((i + 1) % n) as u64 + 1);
            heap.insert(
                Loc::new(i as u64 + 1),
                HeapCell::new(sym("PNodeT"), vec![Val::Addr(next), Val::Int(0)]),
            );
        }
        let mut stack = Stack::new();
        stack.bind(sym("x"), Val::Addr(Loc::new(1)));
        let model = StackHeapModel::new(stack, heap);
        let f = parse_formula("plist(x)").unwrap();
        prop_assert!(ctx.check(&model, &f).is_none());
    }

    /// SplitHeap partitions: sub-heap and rest are disjoint sub-heaps of
    /// the original whose sizes add up to it.
    #[test]
    fn split_heap_partitions(data in proptest::collection::vec(0i64..10, 0..10), stop in 0usize..10) {
        let (heap, head) = list_heap(&data);
        let stop_val = if data.is_empty() || stop % data.len() == 0 {
            Val::Nil
        } else {
            Val::Addr(Loc::new((stop % data.len()) as u64 + 1))
        };
        let mut stack = Stack::new();
        stack.bind(sym("x"), head);
        stack.bind(sym("y"), stop_val);
        let model = StackHeapModel::new(stack, heap.clone());
        let split = sling::split_heap(&[model], sym("x"));
        let sub = &split.sub_models[0].heap;
        let rest = &split.rest[0];
        prop_assert!(sub.disjoint(rest));
        prop_assert!(sub.subheap_of(&heap));
        prop_assert!(rest.subheap_of(&heap));
        prop_assert_eq!(sub.len() + rest.len(), heap.len());
    }

    /// Formula printing round-trips through the parser.
    #[test]
    fn formula_print_parse_roundtrip(n_atoms in 1usize..4, with_pure in any::<bool>()) {
        let mut src = String::new();
        for i in 0..n_atoms {
            if i > 0 {
                src.push_str(" * ");
            }
            src.push_str(&format!("pseg(v{i}, v{})", i + 1));
        }
        if with_pure {
            src.push_str(" & v0 == nil");
        }
        let f1 = parse_formula(&src).unwrap();
        let f2 = parse_formula(&f1.to_string()).unwrap();
        prop_assert_eq!(f1, f2);
    }
}
