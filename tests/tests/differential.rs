//! The differential gate between the two execution tiers: the compiled
//! bytecode VM (`sling_vm::BytecodeVm`, the default) and the tree-walk
//! interpreter (`sling_lang::Vm`, the reference oracle) must be
//! observationally identical — snapshot-for-snapshot equal traces,
//! the same typed fault at the same point (faulting runs keep the same
//! partial trace), and therefore formula-identical analysis reports.
//!
//! The whole 157-program corpus goes through both tiers here, including
//! the five seeded-bug `∗` programs whose runs fault mid-trace, and so
//! does the [`ListCorpus`] fixture most other tests analyze; a proptest
//! sweep then drives randomly generated integer programs (loops,
//! branches, recursion, faulting arithmetic) through both under
//! adversarially small step/depth budgets.

use proptest::prelude::*;

use sling::{collect_models, Collected, Compiler, Executor};
use sling_lang::{check_program, parse_program, TraceConfig, VmConfig};
use sling_logic::Symbol;
use sling_models::Val;
use sling_suite::corpus::all_benches;
use sling_suite::eval::EvalConfig;
use sling_suite::fixtures::ListCorpus;

/// The corpus seed the evaluation harness uses (`EvalConfig::default`).
const SEED: u64 = 0x51_1e6;

/// Runs `f` on a thread with a large stack. The tree-walk oracle
/// recurses natively — the non-terminating seeded-bug programs push
/// `VmConfig::default().max_depth` (2000) interpreter activations
/// before their `StackOverflow` fault, which is deeper than the
/// default test-thread stack affords in debug builds.
fn with_big_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("corpus differential thread panicked");
}

fn collect_under(
    source: &str,
    target: &str,
    inputs: Vec<sling::InputSource>,
    vm_config: VmConfig,
    executor: Executor,
) -> Collected {
    let program = parse_program(source).unwrap();
    check_program(&program).unwrap();
    let compiled = Compiler::compile(&program);
    collect_models(
        &program,
        &compiled,
        Symbol::intern(target),
        &inputs,
        vm_config,
        TraceConfig::default(),
        executor,
    )
}

fn assert_traces_agree(name: &str, bytecode: &Collected, treewalk: &Collected) {
    assert_eq!(
        bytecode.runs.len(),
        treewalk.runs.len(),
        "{name}: run counts diverge"
    );
    for (i, (b, t)) in bytecode.runs.iter().zip(&treewalk.runs).enumerate() {
        assert_eq!(
            b.error, t.error,
            "{name}: run {i} faults diverge between executors"
        );
        assert_eq!(
            b.snapshots.len(),
            t.snapshots.len(),
            "{name}: run {i} snapshot counts diverge"
        );
        for (j, (sb, st)) in b.snapshots.iter().zip(&t.snapshots).enumerate() {
            assert_eq!(
                sb, st,
                "{name}: run {i} snapshot {j} diverges between executors"
            );
        }
    }
}

/// Every corpus benchmark, trace-level: both executors produce the
/// same snapshot stream and the same fault on every input — including
/// the five seeded-bug `∗` programs, whose faulting runs must keep
/// byte-identical partial traces.
#[test]
fn whole_corpus_traces_identical_across_executors() {
    with_big_stack(whole_corpus_traces_impl);
}

fn whole_corpus_traces_impl() {
    let benches = all_benches();
    assert!(benches.len() >= 150, "corpus shrank: {}", benches.len());
    let mut starred = 0usize;
    for bench in &benches {
        let program = parse_program(bench.source)
            .unwrap_or_else(|e| panic!("{}: parse error: {e}", bench.name));
        check_program(&program).unwrap_or_else(|e| panic!("{}: type error: {e}", bench.name));
        let compiled = Compiler::compile(&program);
        let target = Symbol::intern(bench.target);
        let run = |executor| {
            collect_models(
                &program,
                &compiled,
                target,
                &bench.inputs(SEED),
                VmConfig::default(),
                TraceConfig::default(),
                executor,
            )
        };
        let bytecode = run(Executor::Bytecode);
        let treewalk = run(Executor::Treewalk);
        assert_traces_agree(bench.name, &bytecode, &treewalk);
        if bench.bug.is_some() {
            starred += 1;
            assert!(
                bytecode.faulted_runs() > 0,
                "{}: seeded bug never fired",
                bench.name
            );
        }
    }
    assert_eq!(starred, 5, "the paper seeds exactly five ∗ programs");
}

/// The [`ListCorpus`] fixture's four targets, trace-level, on the
/// inputs of its standard batch.
#[test]
fn list_corpus_traces_identical_across_executors() {
    let corpus = ListCorpus::new("DiffListNode");
    let source = corpus.program();
    for request in corpus.batch(1) {
        let target = request.target.to_string();
        let run = |executor| {
            collect_under(
                &source,
                &target,
                request.inputs.clone(),
                VmConfig::default(),
                executor,
            )
        };
        let bytecode = run(Executor::Bytecode);
        assert!(bytecode.runs.iter().all(|r| !r.snapshots.is_empty()));
        assert_traces_agree(&target, &bytecode, &run(Executor::Treewalk));
    }
}

/// Every corpus benchmark, report-level: running the full analysis
/// pipeline under each executor yields formula-identical reports —
/// same locations, same invariants in the same order, same grades,
/// same counters. Only the timing fields, the executor tag and the
/// worker count differ: the bytecode side fans locations out over four
/// workers and the tree-walk side runs them on one, so the comparison
/// also pins reports as independent of the worker count.
#[test]
fn whole_corpus_reports_identical_across_executors() {
    with_big_stack(whole_corpus_reports_impl);
}

fn whole_corpus_reports_impl() {
    // One shared checker cache across every bench and both executors,
    // as the eval harness does — hits return the same reductions a
    // cold search would, so sharing cannot mask a divergence.
    let cache = std::sync::Arc::new(sling::CheckCache::default());
    let analyze = |bench: &sling_suite::program::Bench, executor, workers| {
        let config = EvalConfig::default();
        let engine = sling::Engine::builder()
            .program(sling_suite::eval::compile(bench))
            .pred_env(sling_suite::predicates::pred_env(bench.category))
            .config(sling::SlingConfig {
                executor,
                ..config.sling
            })
            .shared_cache(cache.clone())
            .parallelism(workers)
            .build()
            .unwrap_or_else(|e| panic!("{}: engine build error: {e}", bench.name));
        let request = sling::AnalysisRequest::new(Symbol::intern(bench.target))
            .inputs(bench.inputs(config.seed));
        engine
            .analyze(&request)
            .unwrap_or_else(|e| panic!("{}: {e}", bench.name))
    };
    for bench in all_benches() {
        let bc = analyze(&bench, Executor::Bytecode, 4);
        let tw = analyze(&bench, Executor::Treewalk, 1);
        assert_eq!(bc.metrics.executor, Executor::Bytecode);
        assert_eq!(tw.metrics.executor, Executor::Treewalk);
        assert_eq!(tw.metrics.workers, 1);
        assert!(
            bc.metrics.workers > 1 || bc.locations.len() < 2,
            "{}: the bytecode side must fan its locations out",
            bench.name
        );
        // The analysis payload must match formula-for-formula; Debug
        // form covers locations, invariants, grades, stats, residues.
        assert_eq!(
            format!("{:?}", bc.locations),
            format!("{:?}", tw.locations),
            "{}: inferred invariants diverge between executors",
            bench.name
        );
        assert_eq!(
            bc.declared_locations, tw.declared_locations,
            "{}",
            bench.name
        );
        let m = |r: &sling::Report| {
            let m = &r.metrics;
            (
                m.traces,
                m.runs,
                m.faulted_runs,
                m.verified,
                m.refuted,
                m.confirmed,
                m.unknown,
                m.refuted_initial,
                m.cegir_rounds,
            )
        };
        assert_eq!(m(&bc), m(&tw), "{}: metrics diverge", bench.name);
    }
}

// ---------------------------------------------------------------------
// Proptest sweep: random integer programs through both tiers.
// ---------------------------------------------------------------------

/// A small random arithmetic expression over the variables in scope
/// (`vars`) and constants. Division and remainder are reachable, so
/// generated programs can fault with `DivByZero` (and large
/// multiplications with `Overflow`) — fault parity is part of the
/// property.
fn arb_expr(depth: u32, vars: &'static [&'static str]) -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        2 => (0..vars.len()).prop_map(move |i| vars[i].to_string()),
        1 => (-9i64..10).prop_map(|n| if n < 0 { format!("({n})") } else { n.to_string() }),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_expr(depth - 1, vars);
    prop_oneof![
        4 => leaf,
        4 => (sub.clone(), prop_oneof![
                Just("+"), Just("-"), Just("*"), Just("/"), Just("%")
             ], sub.clone())
            .prop_map(|(l, op, r)| format!("({l} {op} {r})")),
        1 => sub.prop_map(|e| format!("(-{e})")),
    ]
    .boxed()
}

/// A random loop-plus-branch function body. The loop counts `x` down
/// by a generated stride, so termination is not guaranteed — small
/// `max_steps` budgets make `StepLimit` parity part of the property.
fn arb_loop_program() -> impl Strategy<Value = String> {
    (
        arb_expr(2, &["a", "b"]),
        arb_expr(2, &["a", "b", "x"]),
        prop_oneof![Just("1"), Just("2"), Just("0")],
        arb_expr(2, &["a", "b", "x", "y"]),
        arb_expr(1, &["a", "b", "x", "y"]),
    )
        .prop_map(|(init_x, init_y, stride, acc, ret)| {
            format!(
                "fn f(a: int, b: int) -> int {{
                     var x: int = {init_x};
                     var y: int = {init_y};
                     while @l (x > 0) {{
                         x = x - {stride};
                         y = y + {acc};
                     }}
                     if (y > x) {{ return y; }} else {{ return {ret}; }}
                 }}"
            )
        })
}

/// A random linear-recursive function; tiny `max_depth` budgets make
/// `StackOverflow` parity part of the property.
fn arb_recursive_program() -> impl Strategy<Value = String> {
    (
        arb_expr(1, &["a", "b", "x", "y"]),
        prop_oneof![Just("1"), Just("2")],
    )
        .prop_map(|(combine, stride)| {
            format!(
                "fn f(a: int, b: int) -> int {{
                 var x: int = a;
                 var y: int = b;
                 if (a < 1) {{ return {combine}; }}
                 return y + f(a - {stride}, b + 1);
             }}"
            )
        })
}

fn differential_case(source: &str, a: i64, b: i64, max_steps: u64, max_depth: usize) {
    let vm_config = VmConfig {
        max_steps,
        max_depth,
    };
    let inputs = || {
        vec![sling::InputSource::custom(
            move |_: &mut sling_lang::RtHeap| vec![Val::Int(a), Val::Int(b)],
        )]
    };
    let bytecode = collect_under(source, "f", inputs(), vm_config, Executor::Bytecode);
    let treewalk = collect_under(source, "f", inputs(), vm_config, Executor::Treewalk);
    assert_traces_agree(source, &bytecode, &treewalk);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Loops and branches with faulting arithmetic: identical traces
    /// and identical faults under adversarial step budgets (including
    /// budgets that expire mid-loop).
    #[test]
    fn random_loop_programs_agree(
        source in arb_loop_program(),
        a in -20i64..20,
        b in -20i64..20,
        max_steps in prop_oneof![Just(3u64), Just(17), Just(64), Just(500), Just(100_000)],
    ) {
        differential_case(&source, a, b, max_steps, 64);
    }

    /// Recursion: identical traces and identical faults under
    /// adversarial depth budgets (including budgets that expire
    /// mid-recursion).
    #[test]
    fn random_recursive_programs_agree(
        source in arb_recursive_program(),
        a in -4i64..40,
        b in -20i64..20,
        max_depth in prop_oneof![Just(2usize), Just(5), Just(33), Just(1000)],
    ) {
        differential_case(&source, a, b, 100_000, max_depth);
    }
}
