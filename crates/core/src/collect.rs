//! Model collection — the paper's `CollectModels` (Algorithm 1, line 1).
//!
//! Runs the program on every test input under the tracer and groups the
//! observed stack-heap models by breakpoint location. A run that faults
//! (seeded bug, non-termination guard) contributes the snapshots recorded
//! *before* the fault — the paper's Red-black-tree `insert` analysis
//! (§5.4) relies on exactly this partial-trace behaviour.
//!
//! Collection dispatches through an [`Executor`]: the compiled bytecode
//! tier (`sling_vm`, the default hot path) or the tree-walk interpreter
//! (`sling_lang::Vm`, kept as the differential-testing oracle). Both
//! produce identical snapshot streams and identical faults, so the
//! choice is invisible to everything downstream.

use std::collections::BTreeMap;
use std::fmt;

use sling_lang::{Location, Program, RtError, Snapshot, TraceConfig, Tracer, Vm, VmConfig};
use sling_logic::Symbol;
use sling_vm::{BytecodeVm, CompiledProgram};

use crate::request::InputSource;

/// Which execution tier runs the target program during collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Executor {
    /// Compiled bytecode (`sling_vm::BytecodeVm`) — the default.
    #[default]
    Bytecode,
    /// The tree-walk interpreter (`sling_lang::Vm`) — the reference
    /// oracle, selectable via
    /// [`SlingConfig::executor`](crate::SlingConfig::executor).
    Treewalk,
}

impl Executor {
    /// Parses an executor name (`"bytecode"` / `"treewalk"`).
    pub fn parse(s: &str) -> Option<Executor> {
        match s {
            "bytecode" => Some(Executor::Bytecode),
            "treewalk" => Some(Executor::Treewalk),
            _ => None,
        }
    }
}

impl fmt::Display for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Executor::Bytecode => f.write_str("bytecode"),
            Executor::Treewalk => f.write_str("treewalk"),
        }
    }
}

/// One traced run of the target function.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// Snapshots in execution order.
    pub snapshots: Vec<Snapshot>,
    /// The fault that ended the run early, if any.
    pub error: Option<RtError>,
}

/// All models observed for one target function across a test suite.
#[derive(Debug, Clone, Default)]
pub struct Collected {
    /// Per-run traces.
    pub runs: Vec<RunTrace>,
}

impl Collected {
    /// Snapshots grouped by location (flattened across runs, in run then
    /// execution order).
    pub fn by_location(&self) -> BTreeMap<Location, Vec<&Snapshot>> {
        let mut out: BTreeMap<Location, Vec<&Snapshot>> = BTreeMap::new();
        for run in &self.runs {
            for snap in &run.snapshots {
                out.entry(snap.location).or_default().push(snap);
            }
        }
        out
    }

    /// Total number of snapshots (the paper's "Traces" column).
    pub fn total_snapshots(&self) -> usize {
        self.runs.iter().map(|r| r.snapshots.len()).sum()
    }

    /// Number of runs that faulted.
    pub fn faulted_runs(&self) -> usize {
        self.runs.iter().filter(|r| r.error.is_some()).count()
    }
}

/// Renumbers one run's activation ids into the collection-wide
/// sequence: every id shifts by `base`, and the next run's base comes
/// back. `activations` must be the VM's activation *counter*, not the
/// largest recorded id — an activation that faults before its first
/// snapshot still consumed an id, and offsetting by the recorded
/// maximum would let the next run reuse it (colliding entry/exit pairs
/// in the frame-rule validation).
fn offset_activations(snapshots: &mut [Snapshot], base: u64, activations: u64) -> u64 {
    for s in snapshots {
        s.activation += base;
    }
    base + activations
}

/// Runs `target` once per input source and collects the traces.
///
/// `compiled` is the bytecode form of `program` (see
/// [`sling_vm::Compiler::compile`]); engines compile once and reuse it
/// across every request so compilation amortizes over the whole batch.
pub fn collect_models(
    program: &Program,
    compiled: &CompiledProgram,
    target: Symbol,
    inputs: &[InputSource],
    vm_config: VmConfig,
    trace_config: TraceConfig,
    executor: Executor,
) -> Collected {
    let mut out = Collected::default();
    // Each run's VM numbers activations from 1; offset them so activation
    // ids are unique across the whole collection (the frame-rule
    // validation pairs entry/exit snapshots by activation id).
    let mut base: u64 = 0;
    for input in inputs {
        let (snapshots, error, activations) = match executor {
            Executor::Bytecode => {
                let mut vm = BytecodeVm::new(compiled, vm_config);
                let args = input.build(&mut vm.heap);
                vm.set_tracer(Tracer::new(target, trace_config));
                let result = vm.call(target, &args);
                let tracer = vm.take_tracer().expect("tracer was installed");
                (tracer.snapshots, result.err(), vm.activations())
            }
            Executor::Treewalk => {
                let mut vm = Vm::new(program, vm_config);
                let args = input.build(&mut vm.heap);
                vm.set_tracer(Tracer::new(target, trace_config));
                let result = vm.call(target, &args);
                let tracer = vm.take_tracer().expect("tracer was installed");
                (tracer.snapshots, result.err(), vm.activations())
            }
        };
        let mut snapshots = snapshots;
        base = offset_activations(&mut snapshots, base, activations);
        out.runs.push(RunTrace { snapshots, error });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_lang::{check_program, parse_program, RtHeap};
    use sling_models::{StackHeapModel, Val};
    use sling_vm::Compiler;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    const SUM: &str = "
        struct Cell { next: Cell*; data: int; }
        fn sum(x: Cell*) -> int {
            var total: int = 0;
            while @inv (x != null) { total = total + x->data; x = x->next; }
            return total;
        }";

    fn list_builder(vals: &'static [i64]) -> InputSource {
        InputSource::custom(move |heap: &mut RtHeap| {
            let mut next = Val::Nil;
            for v in vals.iter().rev() {
                let loc = heap.alloc(sym("Cell"), vec![next, Val::Int(*v)]);
                next = Val::Addr(loc);
            }
            vec![next]
        })
    }

    fn collect_with(executor: Executor) -> Collected {
        let p = parse_program(SUM).unwrap();
        check_program(&p).unwrap();
        let compiled = Compiler::compile(&p);
        let inputs = vec![
            list_builder(&[]),
            list_builder(&[1]),
            list_builder(&[1, 2, 3]),
        ];
        collect_models(
            &p,
            &compiled,
            sym("sum"),
            &inputs,
            VmConfig::default(),
            TraceConfig::default(),
            executor,
        )
    }

    #[test]
    fn collects_across_runs() {
        for executor in [Executor::Bytecode, Executor::Treewalk] {
            let c = collect_with(executor);
            assert_eq!(c.runs.len(), 3, "{executor}");
            assert_eq!(c.faulted_runs(), 0, "{executor}");
            let by_loc = c.by_location();
            assert_eq!(by_loc[&Location::Entry].len(), 3);
            // Loop head: 1 + 2 + 4 hits.
            assert_eq!(by_loc[&Location::LoopHead(sym("inv"))].len(), 7);
            assert_eq!(by_loc[&Location::Exit(0)].len(), 3);
            assert_eq!(c.total_snapshots(), 13);
        }
    }

    #[test]
    fn executors_agree_snapshot_for_snapshot() {
        let bc = collect_with(Executor::Bytecode);
        let tw = collect_with(Executor::Treewalk);
        assert_eq!(bc.runs.len(), tw.runs.len());
        for (b, t) in bc.runs.iter().zip(&tw.runs) {
            assert_eq!(b.snapshots, t.snapshots);
            assert_eq!(b.error, t.error);
        }
    }

    #[test]
    fn faulting_run_keeps_prefix() {
        let p = parse_program(
            "struct Cell { next: Cell*; data: int; }
             fn bad(x: Cell*) -> int {
                 @before;
                 return x->data;
             }",
        )
        .unwrap();
        check_program(&p).unwrap();
        let compiled = Compiler::compile(&p);
        for executor in [Executor::Bytecode, Executor::Treewalk] {
            let inputs = vec![InputSource::custom(|_| vec![Val::Nil])];
            let c = collect_models(
                &p,
                &compiled,
                sym("bad"),
                &inputs,
                VmConfig::default(),
                TraceConfig::default(),
                executor,
            );
            assert_eq!(c.runs.len(), 1, "{executor}");
            assert!(c.runs[0].error.is_some(), "{executor}");
            // Entry and @before were recorded before the crash.
            assert_eq!(c.runs[0].snapshots.len(), 2, "{executor}");
        }
    }

    #[test]
    fn executor_names_round_trip() {
        for e in [Executor::Bytecode, Executor::Treewalk] {
            assert_eq!(Executor::parse(&e.to_string()), Some(e));
        }
        assert_eq!(Executor::parse("ast"), None);
        assert_eq!(Executor::default(), Executor::Bytecode);
    }

    /// The collision the old offsetting allowed: a run whose deepest
    /// activation recorded no snapshot (it faulted before reaching a
    /// breakpoint). Offsetting by the largest *recorded* id (2) would
    /// hand the next run a base of 2, reusing activation 3; offsetting
    /// by the VM's counter (3) keeps ids unique.
    #[test]
    fn activation_offset_uses_the_counter_not_the_recorded_max() {
        let snap = |activation: u64| Snapshot {
            location: Location::Entry,
            model: StackHeapModel::default(),
            tainted: false,
            activation,
        };
        // Run 1: activations 1 and 2 snapshotted; activation 3 faulted
        // before its first snapshot, so the counter says 3.
        let mut first = vec![snap(1), snap(2)];
        let base = offset_activations(&mut first, 0, 3);
        assert_eq!(base, 3, "counter, not max recorded id (2)");
        // Run 2: its activation 1 must not collide with run 1's unseen
        // activation 3.
        let mut second = vec![snap(1)];
        let base = offset_activations(&mut second, base, 1);
        assert_eq!(second[0].activation, 4);
        assert_eq!(base, 4);
    }

    /// Cross-run activation ids stay unique (and identical between
    /// executors) even when the first run faults mid-recursion.
    #[test]
    fn faulting_runs_keep_activation_ids_unique() {
        let p = parse_program(
            "struct Cell { next: Cell*; data: int; }
             fn probe(x: Cell*) -> int {
                 if (x->next == null) { return x->data; }
                 return probe(x->next);
             }",
        )
        .unwrap();
        check_program(&p).unwrap();
        let compiled = Compiler::compile(&p);
        for executor in [Executor::Bytecode, Executor::Treewalk] {
            let inputs = vec![
                // Null x: `x->next` null-derefs right after the entry
                // snapshot records activation 1, ending run 1 early.
                InputSource::custom(|_| vec![Val::Nil]),
                InputSource::custom(|heap: &mut RtHeap| {
                    let tail = heap.alloc(sym("Cell"), vec![Val::Nil, Val::Int(7)]);
                    let head = heap.alloc(sym("Cell"), vec![Val::Addr(tail), Val::Int(3)]);
                    vec![Val::Addr(head)]
                }),
            ];
            let c = collect_models(
                &p,
                &compiled,
                sym("probe"),
                &inputs,
                VmConfig::default(),
                TraceConfig::default(),
                executor,
            );
            assert!(c.runs[0].error.is_some(), "{executor}");
            // Run 1 consumed activation 1; run 2's two activations are
            // renumbered 2 and 3 — no reuse across runs.
            let ids: Vec<u64> = c
                .runs
                .iter()
                .flat_map(|r| r.snapshots.iter().map(|s| s.activation))
                .collect();
            assert_eq!(ids[0], 1, "{executor}");
            let run2: Vec<u64> = c.runs[1].snapshots.iter().map(|s| s.activation).collect();
            assert_eq!(run2, vec![2, 3, 3, 2], "{executor}");
        }
    }
}
