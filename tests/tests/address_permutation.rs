//! Metamorphic test: reports must not depend on heap addresses.
//!
//! Inference indexes each location's cells in address order, and the
//! checker meets cells in that order, so a search could in principle
//! settle on a different carving when the addresses change. The output
//! must not change: renaming every address through a bijection has to
//! give the same formulas, and residues equal to the original ones
//! renamed. The test collects the models of the first program of each
//! corpus category, renames their addresses two ways (a scramble,
//! `a ↦ a·7919 mod 1,000,003`, and a reversal, `a ↦ 1,000,003 − a`), and
//! infers every location with `Engine::infer_at`, on a fresh engine for
//! each side so that the canonicalizing cache, which does not see
//! addresses, cannot answer for the search.

use std::collections::BTreeMap;

use sling::{collect_models, Engine, LocationAnalysis};
use sling_lang::{Location, Snapshot};
use sling_logic::Symbol;
use sling_models::{Heap, HeapCell, Loc, StackHeapModel, Val};
use sling_suite::corpus::all_benches;
use sling_suite::eval::{engine_for, EvalConfig};
use sling_suite::program::{Bench, Category};

/// A prime above every address the collector hands out: both renamings
/// are bijections on `1..PRIME`.
const PRIME: u64 = 1_000_003;

fn scramble(a: u64) -> u64 {
    a * 7919 % PRIME
}

fn reverse(a: u64) -> u64 {
    PRIME - a
}

fn rename_loc(loc: Loc, f: fn(u64) -> u64) -> Loc {
    assert!(loc.raw() < PRIME, "address {loc} out of the renamed range");
    Loc::new(f(loc.raw()))
}

fn rename_val(val: Val, f: fn(u64) -> u64) -> Val {
    match val {
        Val::Addr(loc) => Val::Addr(rename_loc(loc, f)),
        other => other,
    }
}

fn rename_heap(heap: &Heap, f: fn(u64) -> u64) -> Heap {
    heap.iter()
        .map(|(loc, cell)| {
            let fields = cell.fields.iter().map(|v| rename_val(*v, f)).collect();
            (rename_loc(loc, f), HeapCell::new(cell.ty, fields))
        })
        .collect()
}

fn rename_snapshot(snap: &Snapshot, f: fn(u64) -> u64) -> Snapshot {
    let stack = snap
        .model
        .stack
        .iter()
        .map(|(w, val)| (w, rename_val(val, f)))
        .collect();
    Snapshot {
        location: snap.location,
        model: StackHeapModel::new(stack, rename_heap(&snap.model.heap, f)),
        tainted: snap.tainted,
        activation: snap.activation,
    }
}

/// Every location's analysis, on a fresh engine.
fn infer_all(
    bench: &Bench,
    config: &EvalConfig,
    by_loc: &BTreeMap<Location, Vec<&Snapshot>>,
) -> Vec<LocationAnalysis> {
    let engine: Engine = engine_for(bench, config, None);
    let target = Symbol::intern(bench.target);
    by_loc
        .iter()
        .map(|(location, snaps)| {
            engine
                .infer_at(target, *location, snaps)
                .unwrap_or_else(|e| panic!("{}: {e}", bench.name))
        })
        .collect()
}

#[test]
fn renaming_addresses_renames_residues_and_nothing_else() {
    let config = EvalConfig::default();
    let benches = all_benches();
    let mut compared = 0;
    for category in Category::all() {
        let bench = benches
            .iter()
            .find(|b| b.category == *category)
            .expect("every category has a program");
        let engine = engine_for(bench, &config, None);
        let collected = collect_models(
            engine.program(),
            engine.compiled(),
            Symbol::intern(bench.target),
            &bench.inputs(config.seed),
            config.sling.vm,
            config.sling.trace,
            config.sling.executor,
        );
        let by_loc = collected.by_location();
        let original = infer_all(bench, &config, &by_loc);

        for (name, f) in [
            ("scramble", scramble as fn(u64) -> u64),
            ("reverse", reverse),
        ] {
            let renamed: BTreeMap<Location, Vec<Snapshot>> = by_loc
                .iter()
                .map(|(loc, snaps)| (*loc, snaps.iter().map(|s| rename_snapshot(s, f)).collect()))
                .collect();
            let refs: BTreeMap<Location, Vec<&Snapshot>> = renamed
                .iter()
                .map(|(loc, snaps)| (*loc, snaps.iter().collect()))
                .collect();
            let permuted = infer_all(bench, &config, &refs);
            for (mine, theirs) in original.iter().zip(&permuted) {
                let what = format!("{} at {} under the {name}", bench.name, mine.location);
                assert_eq!(mine.invariants.len(), theirs.invariants.len(), "{what}");
                for (a, b) in mine.invariants.iter().zip(&theirs.invariants) {
                    assert_eq!(a.formula.to_string(), b.formula.to_string(), "{what}");
                    let renamed: Vec<Heap> = a.residues.iter().map(|h| rename_heap(h, f)).collect();
                    assert_eq!(renamed, b.residues, "{what}: {}", a.formula);
                    assert_eq!(a.activations, b.activations, "{what}");
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 50, "too few invariants compared: {compared}");
}
