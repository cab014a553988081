//! The SLING main loop (Algorithm 1) and the per-target driver.
//!
//! For each location: split the heap per pointer variable (ordered by the
//! §2.3 reachability heuristic), infer atomic formulae for each sub-heap,
//! conjoin them with `∗` while propagating residues and instantiations,
//! then run pure inference and scope quantification. Each location keeps
//! one [`AtomMemo`](crate::infer::AtomMemo): when a partial of the result
//! set carves a sub-heap and boundary that a sibling already carved for
//! the same variable, `InferAtom` replays that answer instead of asking
//! the checker again. [`run_target`] runs trace collection first and
//! frame-rule validation (§4.4) last.
//!
//! The public entry point is [`crate::Engine`].

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::time::Instant;

use sling_checker::verify::prove;
use sling_checker::{CheckConfig, CheckCtx, Instantiation, Verdict};
use sling_lang::{Location, Program, Snapshot, TraceConfig, VmConfig};
use sling_logic::{Footprints, FreshVars, SymHeap, Symbol};
use sling_models::StackHeapModel;

use crate::cells::{CellIndex, Masks};
use crate::collect::{collect_models, Executor};
use crate::infer::{infer_atom, var_types, AtomMemo, VarTy};
use crate::pure::infer_pure;
use crate::report::{
    Invariant, InvariantGrade, InvariantStats, LocationAnalysis, Report, RunMetrics,
};
use crate::request::InputSource;
use crate::spec::InputSpec;
use crate::split::{split_masks, BoundaryItem};
use crate::validate::validate_frame;

/// Configuration for a whole analysis.
#[derive(Debug, Clone, Copy)]
pub struct SlingConfig {
    /// Model-checker limits.
    pub check: CheckConfig,
    /// Drop duplicate stack-heap models before inference (identical
    /// models carry no extra information but multiply checking cost).
    pub dedupe_models: bool,
    /// Hard cap on models per location (0 = unlimited); mirrors the
    /// paper's observation that trace-heavy loop locations overwhelm the
    /// checker.
    pub max_models_per_location: usize,
    /// Interpreter limits for trace collection.
    pub vm: VmConfig,
    /// Tracer behaviour (freed-cell visibility).
    pub trace: TraceConfig,
    /// Which execution tier collects traces: the compiled bytecode VM
    /// (default, the hot path) or the tree-walk interpreter (the
    /// differential-testing oracle; both produce identical traces, so
    /// this is a performance knob, not a semantics one).
    pub executor: Executor,
    /// Static verification + CEGIR refinement: every reported invariant
    /// is graded against its siblings by bounded unfolding (see
    /// [`sling_checker::verify`]), and refutation witnesses drive up to
    /// three counterexample-guided re-collection rounds. Off by default,
    /// which leaves every invariant [`InvariantGrade::Ungraded`].
    pub verify: bool,
}

impl Default for SlingConfig {
    fn default() -> SlingConfig {
        SlingConfig {
            check: CheckConfig::default(),
            dedupe_models: true,
            max_models_per_location: 48,
            vm: VmConfig::default(),
            trace: TraceConfig::default(),
            executor: Executor::default(),
            verify: false,
        }
    }
}

/// Cap on the result set `R` carried across variables (strongest kept).
const MAX_RESULTS_PER_LOCATION: usize = 8;

/// Maximum refinement rounds of the verification post-pass: each round
/// turns refutation witnesses into new inputs and re-runs collection and
/// inference.
const CEGIR_ROUNDS: usize = 3;

/// One in-flight element of the result set `R` (Algorithm 1).
#[derive(Debug, Clone)]
struct Partial {
    formula: SymHeap,
    /// Per model, the cells no atom covers yet.
    residues: Masks,
    insts: Vec<Instantiation>,
}

/// Runs SLING end to end on one target function against the given
/// checker context: collect models on the inputs, infer invariants at
/// every reached location, validate entry/exit pairs with the frame
/// rule. The cache delta of the report is left zeroed; [`crate::Engine`]
/// fills it in.
///
/// Per-location inference is independent (each location has its own
/// models, fresh-variable counter, and result set), so with `workers >
/// 1` the locations fan out over a scoped thread pool sharing the
/// engine's sharded entailment cache; reports are always assembled in
/// *location order*, formula-for-formula identical to a sequential run.
///
/// # Panics
///
/// Panics if `target` is not a function of `program` (the engine
/// validates targets before calling).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_target(
    ctx: &CheckCtx<'_>,
    footprints: &Footprints,
    program: &Program,
    compiled: &sling_vm::CompiledProgram,
    target: Symbol,
    inputs: &[InputSource],
    config: &SlingConfig,
    workers: usize,
) -> Report {
    if !config.verify {
        return run_target_once(
            ctx, footprints, program, compiled, target, inputs, config, workers,
        );
    }
    let start = Instant::now();
    let func = program.func(target).expect("target exists");
    let params = func.params.clone();

    let mut inputs: Vec<InputSource> = inputs.to_vec();
    let mut report = run_target_once(
        ctx,
        footprints,
        program,
        compiled,
        target,
        inputs.as_slice(),
        config,
        workers,
    );
    // Collection time accumulates across refinement rounds so the
    // client-visible number covers every re-run, not just the last.
    let mut collect_total = report.metrics.collect_seconds;
    let verify_start = Instant::now();
    let mut rounds = 0usize;
    let mut refuted_initial = 0usize;
    loop {
        let witnesses: Vec<StackHeapModel> = report
            .locations
            .iter_mut()
            .flat_map(|analysis| grade_location(ctx, analysis))
            .collect();
        if rounds == 0 {
            refuted_initial = report.graded_count(InvariantGrade::Refuted);
        }
        if witnesses.is_empty() || rounds >= CEGIR_ROUNDS {
            break;
        }
        // Counterexample-guided refinement: each witness becomes a
        // targeted input. Witnesses whose input is already in the set
        // bring no new evidence — if *none* is new, the refuted
        // invariants survived runs on the very states the prover
        // proposed, so they are re-graded Confirmed instead of looping.
        let mut fresh: Vec<InputSpec> = Vec::new();
        for witness in &witnesses {
            let spec = InputSpec::from_witness(witness, &params);
            let dup = fresh.contains(&spec)
                || inputs
                    .iter()
                    .any(|i| matches!(i, InputSource::Spec(s) if *s == spec));
            if !dup {
                fresh.push(spec);
            }
        }
        if fresh.is_empty() {
            for analysis in &mut report.locations {
                for inv in &mut analysis.invariants {
                    if inv.grade == InvariantGrade::Refuted {
                        inv.grade = InvariantGrade::Confirmed;
                    }
                }
            }
            break;
        }
        inputs.extend(fresh.into_iter().map(InputSource::from));
        report = run_target_once(
            ctx, footprints, program, compiled, target, &inputs, config, workers,
        );
        collect_total += report.metrics.collect_seconds;
        rounds += 1;
    }

    report.metrics.collect_seconds = collect_total;
    report.metrics.verified = report.graded_count(InvariantGrade::Verified);
    report.metrics.refuted = report.graded_count(InvariantGrade::Refuted);
    report.metrics.confirmed = report.graded_count(InvariantGrade::Confirmed);
    report.metrics.unknown = report.graded_count(InvariantGrade::Unknown);
    report.metrics.refuted_initial = refuted_initial;
    report.metrics.cegir_rounds = rounds;
    report.metrics.verify_seconds = verify_start.elapsed().as_secs_f64();
    report.metrics.seconds = start.elapsed().as_secs_f64();
    report
}

/// Grades every invariant at one location against its siblings; returns
/// the refutation witnesses of non-spurious invariants (spurious ones are
/// graded but neither feed the refinement loop nor serve as references).
fn grade_location(ctx: &CheckCtx<'_>, analysis: &mut LocationAnalysis) -> Vec<StackHeapModel> {
    let references: Vec<SymHeap> = analysis
        .invariants
        .iter()
        .filter(|i| !i.spurious)
        .map(|i| i.formula.clone())
        .collect();
    let mut witnesses = Vec::new();
    for inv in &mut analysis.invariants {
        inv.grade = match prove(ctx, &inv.formula, &references) {
            Verdict::Verified => InvariantGrade::Verified,
            Verdict::Refuted { witness } => {
                if !inv.spurious {
                    witnesses.push(witness);
                }
                InvariantGrade::Refuted
            }
            Verdict::Unknown { .. } => InvariantGrade::Unknown,
        };
    }
    witnesses
}

/// The dynamic-only pipeline: collection, inference, frame validation.
#[allow(clippy::too_many_arguments)]
fn run_target_once(
    ctx: &CheckCtx<'_>,
    footprints: &Footprints,
    program: &Program,
    compiled: &sling_vm::CompiledProgram,
    target: Symbol,
    inputs: &[InputSource],
    config: &SlingConfig,
    workers: usize,
) -> Report {
    let start = Instant::now();
    let collected = collect_models(
        program,
        compiled,
        target,
        inputs,
        config.vm,
        config.trace,
        config.executor,
    );
    let collect_seconds = start.elapsed().as_secs_f64();
    let func = program.func(target).expect("target exists");
    let param_order: Vec<Symbol> = func.params.iter().map(|p| p.name).collect();

    // The engine's one fan-out level: locations are independent (each
    // has its own models, fresh-variable counter, and result set), so
    // they run over the work-stealing scaffold with location-order slot
    // assembly.
    let by_loc: Vec<(Location, Vec<&Snapshot>)> = collected.by_location().into_iter().collect();
    let workers = workers.max(1).min(by_loc.len().max(1));
    let mut locations: Vec<LocationAnalysis> = crate::fanout::fan_out(workers, by_loc.len(), |i| {
        let (loc, snaps) = &by_loc[i];
        infer_location(ctx, footprints, *loc, snaps, &param_order, config)
    });

    // Frame-rule validation: every exit invariant must preserve some
    // entry invariant's frame (per activation).
    let entry_report = locations.iter().position(|r| r.location == Location::Entry);
    if let Some(entry_idx) = entry_report {
        let entry = locations[entry_idx].clone();
        for report in &mut locations {
            let Location::Exit(_) = report.location else {
                continue;
            };
            for inv in &mut report.invariants {
                let ok = entry.invariants.iter().any(|pre| validate_frame(pre, inv));
                if !ok {
                    inv.spurious = true;
                }
            }
        }
    }

    Report {
        target,
        locations,
        declared_locations: program.locations_of(target),
        metrics: RunMetrics {
            traces: collected.total_snapshots(),
            runs: collected.runs.len(),
            faulted_runs: collected.faulted_runs(),
            workers,
            seconds: start.elapsed().as_secs_f64(),
            collect_seconds,
            executor: config.executor,
            ..Default::default()
        },
        cache: Default::default(),
        // Filled in by the engine when it carries a build-time static
        // analysis; the raw pipeline has none.
        static_warnings: Vec::new(),
        unreachable_locations: Vec::new(),
    }
}

/// The snapshots whose models inference uses at a location, in
/// collection order: a model identical to an earlier one is dropped
/// when [`SlingConfig::dedupe_models`] is set, and selection stops at
/// [`SlingConfig::max_models_per_location`] models.
pub fn select_models<'s>(snaps: &[&'s Snapshot], config: &SlingConfig) -> Vec<&'s Snapshot> {
    // Dedupe by hash + structural equality: no string rendering on this
    // per-location hot path.
    let mut selected = Vec::new();
    let mut seen: HashSet<&StackHeapModel> = HashSet::new();
    for &s in snaps {
        if config.dedupe_models && !seen.insert(&s.model) {
            continue;
        }
        selected.push(s);
        if config.max_models_per_location > 0 && selected.len() >= config.max_models_per_location {
            break;
        }
    }
    selected
}

/// Infers invariants at a single location (Algorithm 1, lines 2–11, plus
/// pure inference and scope quantification).
///
/// The selected models are indexed once ([`CellIndex`]); every residue,
/// sub-heap and rest of the main loop is a set of indexed cells, and
/// heaps are built only for the reported invariants' residues.
pub(crate) fn infer_location(
    ctx: &CheckCtx<'_>,
    footprints: &Footprints,
    location: Location,
    snaps: &[&Snapshot],
    param_order: &[Symbol],
    config: &SlingConfig,
) -> LocationAnalysis {
    let snapshots_seen = snaps.len();
    let tainted = snaps.iter().any(|s| s.tainted);

    let selected = select_models(snaps, config);
    let models: Vec<&StackHeapModel> = selected.iter().map(|s| &s.model).collect();
    let activations: Vec<u64> = selected.iter().map(|s| s.activation).collect();
    if models.is_empty() {
        return LocationAnalysis {
            location,
            invariants: Vec::new(),
            models_used: 0,
            snapshots_seen,
            tainted,
        };
    }

    let index = CellIndex::new(&models);
    let vt = var_types(models.iter().copied());
    let order = variable_order(&index, &vt, param_order);
    let mut fresh = FreshVars::new("u");
    for m in &models {
        fresh.avoid_all(m.stack.vars());
    }
    let mut memo = AtomMemo::new();

    // Algorithm 1 main loop.
    let mut set: Vec<Partial> = vec![Partial {
        formula: SymHeap::emp(),
        residues: index.full(),
        insts: vec![Instantiation::new(); models.len()],
    }];
    // Worklist over the variable order. A variable whose sub-heap could
    // only be modeled by `emp` in every branch is *deferred* once to the
    // end: by then other variables may have consumed the cells that
    // blocked it (e.g. a queue header whose `last` pointer reaches into
    // the list — once the list variable owns those cells, the header's
    // sub-heap is the lone header cell and a singleton matches).
    let mut worklist: std::collections::VecDeque<Symbol> = order.iter().copied().collect();
    let mut deferred: BTreeSet<Symbol> = BTreeSet::new();
    while let Some(v) = worklist.pop_front() {
        let v = &v;
        // (parent index, child partial): the parent lineage keeps branch
        // diversity through truncation.
        let mut next: Vec<(usize, Partial)> = Vec::new();
        let mut all_emp = true;
        for (parent, partial) in set.iter().enumerate() {
            let split = split_masks(&index, &partial.residues, *v);
            let atoms = infer_atom(
                ctx,
                footprints,
                *v,
                &index,
                &split.sub,
                &split.boundary,
                &vt,
                &mut fresh,
                &mut memo,
            );
            all_emp &= atoms.iter().all(|a| a.formula.is_emp()) && !split.sub.is_empty();
            for atom in atoms {
                let mut residues = atom.residues;
                residues.union_with(&split.rest);
                let mut insts = partial.insts.clone();
                for (acc, add) in insts.iter_mut().zip(&atom.insts) {
                    acc.merge(add);
                }
                next.push((
                    parent,
                    Partial {
                        formula: partial.formula.clone().star(atom.formula),
                        residues,
                        insts,
                    },
                ));
            }
        }
        if all_emp && deferred.insert(*v) {
            // Nothing modeled this variable's (non-empty) sub-heap yet;
            // retry after the remaining variables.
            worklist.push_back(*v);
            continue;
        }
        // Stable sort: ties keep insertion order, which is the
        // strongest-first order of the per-variable atom results.
        next.sort_by_key(|(_, p)| p.residues.len());
        // Truncate, but keep every lineage alive: first the best child of
        // each parent (in sorted order), then the remaining slots by
        // strength. This is what lets both the maximal-coverage and the
        // paper's head-rooted results survive to the end.
        let mut kept: Vec<Partial> = Vec::with_capacity(MAX_RESULTS_PER_LOCATION);
        let mut parents_done: BTreeSet<usize> = BTreeSet::new();
        for (parent, p) in &next {
            if kept.len() >= MAX_RESULTS_PER_LOCATION {
                break;
            }
            if parents_done.insert(*parent) {
                kept.push(p.clone());
            }
        }
        for (_, p) in next {
            if kept.len() >= MAX_RESULTS_PER_LOCATION {
                break;
            }
            if !kept.iter().any(|q| q.formula == p.formula) {
                kept.push(p);
            }
        }
        set = kept;
    }

    // Pure inference, scope quantification, stats.
    let scope_free = scope_free_vars(location, param_order, &models);
    let mut invariants: Vec<Invariant> = Vec::new();
    let mut dedup: BTreeSet<String> = BTreeSet::new();
    for partial in set {
        let mut formula = infer_pure(&partial.formula, &models, &partial.insts, &scope_free);
        finalize_formula(&mut formula, &scope_free);
        let key = formula.to_string();
        if !dedup.insert(key) {
            continue;
        }
        let stats = InvariantStats {
            singletons: formula.singleton_count(),
            preds: formula.pred_count(),
            pures: formula.pure_count(),
        };
        invariants.push(Invariant {
            location,
            formula,
            residues: index
                .models
                .iter()
                .map(|m| m.heap(&partial.residues))
                .collect(),
            activations: activations.clone(),
            stats,
            spurious: tainted,
            grade: InvariantGrade::Ungraded,
        });
    }

    LocationAnalysis {
        location,
        invariants,
        models_used: models.len(),
        snapshots_seen,
        tainted,
    }
}

/// The §2.3 variable-order heuristic: pointer variables, parameters
/// first, then variables directly reachable from the boundaries of
/// already-analyzed variables, `res` last.
fn variable_order(
    index: &CellIndex<'_>,
    vt: &BTreeMap<Symbol, VarTy>,
    param_order: &[Symbol],
) -> Vec<Symbol> {
    let res = Symbol::intern("res");
    let all_vars: Vec<Symbol> = index.models[0].model.stack.vars().collect();
    let pointer = |v: &Symbol| !matches!(vt.get(v), Some(VarTy::Int));

    let mut queue: Vec<Symbol> = Vec::new();
    for p in param_order {
        if all_vars.contains(p) && pointer(p) {
            queue.push(*p);
        }
    }
    for v in &all_vars {
        if *v != res && pointer(v) && !queue.contains(v) {
            queue.push(*v);
        }
    }
    if all_vars.contains(&res) && pointer(&res) {
        queue.push(res);
    }

    // Dynamic selection: prefer the first queued variable that showed up
    // in the boundary of an already-analyzed one.
    let mut order: Vec<Symbol> = Vec::new();
    let mut boundary_seen: BTreeSet<Symbol> = BTreeSet::new();
    let mut remaining = queue;
    let full = index.full();
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .position(|v| boundary_seen.contains(v))
            .unwrap_or(0);
        let v = remaining.remove(pick);
        // Record the boundary this variable produces on the *full* models
        // (a cheap approximation: splitting residues mid-loop would give
        // the precise set, but the reachability structure is the same).
        let split = split_masks(index, &full, v);
        for item in &split.boundary {
            if let BoundaryItem::Var(w) = item {
                boundary_seen.insert(*w);
            }
        }
        order.push(v);
    }
    order
}

/// Free variables allowed at a location: parameters and `res` for entry
/// and exits (function pre/postconditions, §2.3: "SLING only uses the
/// function's parameters and the ghost variable res as free variables");
/// all in-scope stack variables for labels and loop heads.
fn scope_free_vars(
    location: Location,
    param_order: &[Symbol],
    models: &[&StackHeapModel],
) -> BTreeSet<Symbol> {
    match location {
        Location::Entry | Location::Exit(_) => {
            let mut free: BTreeSet<Symbol> = param_order.iter().copied().collect();
            free.insert(Symbol::intern("res"));
            free
        }
        Location::Label(_) | Location::LoopHead(_) => models[0].stack.vars().collect(),
    }
}

/// Normalizes an invariant's binders: every variable outside the allowed
/// free set becomes existential (e.g. the local `tmp` in the paper's
/// `F_L3`), unused binders are dropped, and the survivors are renamed to
/// `u1, u2, ...` in first-occurrence order — the paper's presentation.
fn finalize_formula(formula: &mut SymHeap, free: &BTreeSet<Symbol>) {
    // Quantify locals and any stray frees.
    for v in formula.free_vars() {
        if !free.contains(&v) {
            formula.exists.push(v);
        }
    }
    // Drop binders that no longer occur; dedupe.
    let mut used = BTreeSet::new();
    for s in &formula.spatial {
        s.free_vars_into(&mut used);
    }
    for p in &formula.pure {
        p.free_vars_into(&mut used);
    }
    let mut seen = BTreeSet::new();
    formula
        .exists
        .retain(|u| used.contains(u) && seen.insert(*u));

    // Rename to u1..uk in first-occurrence order (stable, readable).
    let binders: BTreeSet<Symbol> = formula.exists.iter().copied().collect();
    let mut order: Vec<Symbol> = Vec::new();
    let note = |e: &sling_logic::Expr, order: &mut Vec<Symbol>| {
        for v in e.free_vars() {
            if binders.contains(&v) && !order.contains(&v) {
                order.push(v);
            }
        }
    };
    for s in &formula.spatial {
        match s {
            sling_logic::SpatialAtom::PointsTo { root, fields, .. } => {
                note(root, &mut order);
                for f in fields {
                    note(&f.value, &mut order);
                }
            }
            sling_logic::SpatialAtom::Pred { args, .. } => {
                for a in args {
                    note(a, &mut order);
                }
            }
        }
    }
    for p in &formula.pure {
        let (a, b) = p.operands();
        note(a, &mut order);
        note(b, &mut order);
    }
    let mut fresh = FreshVars::new("u");
    fresh.avoid_all(free.iter().copied());
    let map: sling_logic::Subst = order
        .iter()
        .map(|&old| (old, sling_logic::Expr::Var(fresh.next())))
        .collect();
    *formula = sling_logic::subst_symheap_bound(formula, &map);
    // Binder list in occurrence order.
    formula.exists = order
        .iter()
        .map(|old| match map.get(old) {
            Some(sling_logic::Expr::Var(n)) => *n,
            _ => *old,
        })
        .collect();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::request::{AnalysisRequest, InputSource};
    use crate::spec::{InputSpec, ValueSpec};
    use sling_lang::{check_program, parse_program, ListLayout};

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    const CONCAT: &str = "
        struct Node { next: Node*; prev: Node*; }
        fn concat(x: Node*, y: Node*) -> Node* {
            @L1;
            if (x == null) { @L2; return y; }
            else {
                var tmp: Node* = concat(x->next, y);
                x->next = tmp;
                if (tmp != null) { tmp->prev = x; }
                @L3;
                return x;
            }
        }";

    const DLL_PRED: &str = "
        pred dll(hd: Node*, pr: Node*, tl: Node*, nx: Node*) :=
            emp & hd == nx & pr == tl
          | exists u. hd -> Node{next: u, prev: pr} * dll(u, hd, tl, nx);";

    fn node_layout() -> ListLayout {
        ListLayout {
            ty: sym("Node"),
            nfields: 2,
            next: 0,
            prev: Some(1),
            data: None,
        }
    }

    /// `(x, y)`: two disjoint doubly linked lists, declaratively.
    fn dll_builder(n: usize, m: usize) -> InputSource {
        InputSpec::seeded((n * 31 + m) as u64)
            .arg(ValueSpec::dll(node_layout(), n))
            .arg(ValueSpec::dll(node_layout(), m))
            .into()
    }

    fn run_concat() -> Report {
        let engine = Engine::builder()
            .program_source(CONCAT)
            .unwrap()
            .predicates_source(DLL_PRED)
            .unwrap()
            .build()
            .unwrap();
        let request = AnalysisRequest::new("concat").inputs(vec![
            dll_builder(0, 0),
            dll_builder(0, 2),
            dll_builder(3, 0),
            dll_builder(3, 2),
        ]);
        engine.analyze(&request).unwrap()
    }

    #[test]
    fn concat_end_to_end() {
        let report = run_concat();
        assert_eq!(report.metrics.runs, 4);
        assert_eq!(report.metrics.faulted_runs, 0);
        assert!(report.metrics.traces > 10);
        assert_eq!(report.declared_locations.len(), 6);

        // Precondition at L1: two disjoint dlls (or the empty cases).
        let l1 = report.at(Location::Label(sym("L1"))).expect("L1 reached");
        assert!(!l1.invariants.is_empty());
        let strongest = &l1.invariants[0];
        let s = strongest.formula.to_string();
        assert!(s.contains("dll(x") || s.contains("x == nil"), "L1: {s}");

        // Postcondition at the non-nil exit (the paper's F'_L3 — res is
        // the ghost bound at the return) mentions res == x.
        let exit1 = report.at(Location::Exit(1)).expect("exit#1 reached");
        let found = exit1.invariants.iter().any(|i| {
            let t = i.formula.to_string();
            t.contains("res == x") || t.contains("x == res")
        });
        assert!(
            found,
            "exit#1 should know res == x: {:?}",
            exit1
                .invariants
                .iter()
                .map(|i| i.formula.to_string())
                .collect::<Vec<_>>()
        );

        // The paper's three-segment shape:
        // dll(x,...,tmp) * dll(tmp, x, ..., y) * dll(y, ..., nil)
        // (tmp is out of scope at the exit, so it shows as an existential
        // — the shape is three dll atoms with x and y rooted).
        let shape = exit1.invariants.iter().any(|i| {
            let t = i.formula.to_string();
            t.contains("dll(x") && t.contains("dll(y") && t.matches("dll(").count() >= 3
        });
        assert!(
            shape,
            "exit#1 three-segment shape missing: {:?}",
            exit1
                .invariants
                .iter()
                .map(|i| i.formula.to_string())
                .collect::<Vec<_>>()
        );

        // Exit invariants validated by the frame rule (not spurious).
        assert!(exit1.invariants.iter().any(|i| !i.spurious));

        // exit#0 (x == nil branch): x == nil and res == y.
        let exit0 = report.at(Location::Exit(0)).expect("exit#0 reached");
        let e0ok = exit0.invariants.iter().any(|i| {
            let t = i.formula.to_string();
            t.contains("x == nil") && (t.contains("res == y") || t.contains("y == res"))
        });
        assert!(
            e0ok,
            "exit#0: {:?}",
            exit0
                .invariants
                .iter()
                .map(|i| i.formula.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_input_engine_run() {
        // Migrated from the removed positional-shim test: one input, one
        // run, an entry report — through the engine API.
        let engine = Engine::builder()
            .program_source(CONCAT)
            .unwrap()
            .predicates_source(DLL_PRED)
            .unwrap()
            .build()
            .unwrap();
        let report = engine
            .analyze(&AnalysisRequest::new("concat").input(dll_builder(2, 1)))
            .unwrap();
        assert_eq!(report.metrics.runs, 1);
        assert!(report.at(Location::Entry).is_some());
    }

    #[test]
    fn variable_order_matches_paper() {
        // At the non-nil return (the paper's L3 with the ghost `res`)
        // the order must be x, tmp, y, res (§2.3).
        let program = parse_program(CONCAT).unwrap();
        check_program(&program).unwrap();
        let compiled = sling_vm::Compiler::compile(&program);
        let inputs = vec![dll_builder(3, 2)];
        let collected = collect_models(
            &program,
            &compiled,
            sym("concat"),
            &inputs,
            VmConfig::default(),
            TraceConfig::default(),
            Executor::default(),
        );
        let by_loc = collected.by_location();
        let snaps = &by_loc[&Location::Exit(1)];
        let models: Vec<&StackHeapModel> = snaps.iter().map(|s| &s.model).collect();
        let vt = var_types(models.iter().copied());
        let order = variable_order(&CellIndex::new(&models), &vt, &[sym("x"), sym("y")]);
        assert_eq!(order, vec![sym("x"), sym("tmp"), sym("y"), sym("res")]);
    }
}
