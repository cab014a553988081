//! Engine/batch API integration: one engine, one predicate environment,
//! several target functions, a shared entailment cache.

use sling::{AnalysisRequest, Engine, InputSource};
use sling_lang::{Location, RtHeap};
use sling_logic::Symbol;
use sling_models::Val;
use sling_suite::corpus::all_benches;
use sling_suite::eval::{compile, EvalConfig};
use sling_suite::predicates::pred_env;

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

/// The paper's `concat` plus a plain traversal, in one program.
const PROGRAM: &str = "
    struct Node { next: Node*; prev: Node*; }
    fn concat(x: Node*, y: Node*) -> Node* {
        if (x == null) { return y; }
        var tmp: Node* = concat(x->next, y);
        x->next = tmp;
        if (tmp != null) { tmp->prev = x; }
        return x;
    }
    fn traverse(x: Node*) -> Node* {
        var c: Node* = x;
        while @walk (c != null) {
            c = c->next;
        }
        return x;
    }";

const DLL_PRED: &str = "
    pred dll(hd: Node*, pr: Node*, tl: Node*, nx: Node*) :=
        emp & hd == nx & pr == tl
      | exists u. hd -> Node{next: u, prev: pr} * dll(u, hd, tl, nx);";

/// Allocates an `n`-cell doubly linked list, returning its head value.
fn mk_dll(heap: &mut RtHeap, n: usize) -> Val {
    let node = sym("Node");
    let mut locs = Vec::new();
    for _ in 0..n {
        locs.push(heap.alloc(node, vec![Val::Nil, Val::Nil]));
    }
    for i in 0..n {
        if i + 1 < n {
            heap.live_mut(locs[i]).unwrap().fields[0] = Val::Addr(locs[i + 1]);
        }
        if i > 0 {
            heap.live_mut(locs[i]).unwrap().fields[1] = Val::Addr(locs[i - 1]);
        }
    }
    locs.first().map(|l| Val::Addr(*l)).unwrap_or(Val::Nil)
}

fn concat_input(n: usize, m: usize) -> InputSource {
    InputSource::custom(move |heap: &mut RtHeap| {
        let x = mk_dll(heap, n);
        let y = mk_dll(heap, m);
        vec![x, y]
    })
}

fn traverse_input(n: usize) -> InputSource {
    InputSource::custom(move |heap: &mut RtHeap| vec![mk_dll(heap, n)])
}

/// A strictly sequential engine, so per-request hit and miss counts do
/// not vary between runs (two workers can miss one key at once).
fn engine() -> Engine {
    Engine::builder()
        .program_source(PROGRAM)
        .expect("program parses")
        .predicates_source(DLL_PRED)
        .expect("predicates parse")
        .parallelism(1)
        .build()
        .expect("program checks")
}

#[test]
fn analyze_all_shares_one_pred_env_and_hits_the_cache() {
    let engine = engine();
    let requests = vec![
        AnalysisRequest::new("concat").inputs(vec![
            concat_input(0, 0),
            concat_input(0, 2),
            concat_input(3, 0),
            concat_input(3, 2),
        ]),
        AnalysisRequest::new("traverse").inputs(vec![
            traverse_input(0),
            traverse_input(2),
            traverse_input(3),
        ]),
    ];
    let batch = engine.analyze_all(&requests).expect("both targets exist");
    assert_eq!(batch.reports.len(), 2);

    // Both targets produce invariants from the one engine.
    let concat = batch.by_target(sym("concat")).expect("concat report");
    let traverse = batch.by_target(sym("traverse")).expect("traverse report");
    assert!(concat.invariant_count() > 0, "concat inferred nothing");
    assert!(traverse.invariant_count() > 0, "traverse inferred nothing");
    assert!(concat.at(Location::Entry).is_some());
    assert!(traverse.at(Location::LoopHead(sym("walk"))).is_some());

    // The first request runs cold; the second must reuse entailments the
    // first already established (same dll shapes, same predicate env).
    assert_eq!(
        concat.cache.hits + concat.cache.misses,
        concat.cache.lookups()
    );
    assert!(
        traverse.cache.hits >= 1,
        "second target saw no cache hits: {:?} (batch: {:?})",
        traverse.cache,
        batch.cache
    );
    assert!(batch.cache.lookups() >= concat.cache.lookups() + traverse.cache.lookups());
    assert!(batch.cache.entries > 0);

    // The engine's cumulative counters agree with the batch delta.
    assert!(engine.cache_stats().hits >= traverse.cache.hits);
}

#[test]
fn repeated_requests_run_almost_entirely_warm() {
    let engine = engine();
    let request =
        || AnalysisRequest::new("traverse").inputs(vec![traverse_input(0), traverse_input(3)]);
    let cold = engine.analyze(&request()).unwrap();
    let warm = engine.analyze(&request()).unwrap();
    assert!(cold.cache.misses > 0);
    assert!(
        warm.cache.hits >= warm.cache.misses,
        "a repeated request should be mostly cache hits: {:?}",
        warm.cache
    );
    // Same inputs, same verdicts.
    assert_eq!(cold.invariant_count(), warm.invariant_count());
    let fmt = |r: &sling::Report| {
        r.locations
            .iter()
            .flat_map(|l| l.invariants.iter().map(|i| i.formula.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(fmt(&cold), fmt(&warm));
}

/// A cache answers questions; it must not change which ones inference
/// asks. With no room to store anything every lookup is a search, so the
/// uncached run's misses count the cached run's lookups.
#[test]
fn the_cache_never_changes_which_questions_are_asked() {
    let bench = all_benches()
        .into_iter()
        .find(|b| b.name == "dll/concat")
        .expect("dll/concat is in the corpus");
    let seed = EvalConfig::default().seed;
    let run = |capacity: Option<usize>| {
        let mut builder = Engine::builder()
            .program(compile(&bench))
            .pred_env(pred_env(bench.category));
        if let Some(capacity) = capacity {
            builder = builder.cache_capacity(capacity);
        }
        let engine = builder.build().expect("the corpus program checks");
        let request = AnalysisRequest::new(bench.target).inputs(bench.inputs(seed));
        engine.analyze(&request).expect("the target exists")
    };
    let cached = run(None);
    let uncached = run(Some(0));
    let formulas = |r: &sling::Report| {
        r.locations
            .iter()
            .flat_map(|l| l.invariants.iter().map(|i| i.formula.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(formulas(&cached), formulas(&uncached));
    assert!(cached.cache.hits > 0, "{:?}", cached.cache);
    assert_eq!(uncached.cache.hits, 0);
    assert_eq!(uncached.cache.misses, cached.cache.lookups());
}
