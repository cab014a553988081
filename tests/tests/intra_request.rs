//! Intra-request parallelism: a single `analyze` call, and each request
//! of a batch, fans its per-location inference out over the engine's
//! worker pool, produces output formula-for-formula identical to a
//! sequential run, and reports the worker count it actually used in
//! `RunMetrics::workers`.

use sling::{AnalysisRequest, CacheStats, Engine, InputSpec, ListLayout, Report, ValueSpec};
use sling_logic::Symbol;

/// One function, many locations: two labels, a loop head, an entry and
/// two exits — six inference sites from a single request.
const PROGRAM: &str = "
    struct INode { next: INode*; data: int; }
    fn span(x: INode*, y: INode*) -> INode* {
        @L1;
        var c: INode* = x;
        while @walk (c != null) {
            c = c->next;
        }
        @L2;
        if (y == null) { return x; }
        return y;
    }";

const PREDS: &str = "
    pred sll(x: INode*) := emp & x == nil
       | exists u, d. x -> INode{next: u, data: d} * sll(u);
    pred lseg(x: INode*, y: INode*) := emp & x == y
       | exists u, d. x -> INode{next: u, data: d} * lseg(u, y);";

fn layout() -> ListLayout {
    ListLayout {
        ty: Symbol::intern("INode"),
        nfields: 2,
        next: 0,
        prev: None,
        data: Some(1),
    }
}

fn engine(parallelism: usize) -> Engine {
    Engine::builder()
        .program_source(PROGRAM)
        .expect("program parses")
        .predicates_source(PREDS)
        .expect("predicates parse")
        .parallelism(parallelism)
        .build()
        .expect("program checks")
}

fn request() -> AnalysisRequest {
    let two = |seed: u64, n: usize, m: usize| {
        InputSpec::seeded(seed)
            .arg(ValueSpec::sll(layout(), n))
            .arg(ValueSpec::sll(layout(), m))
    };
    AnalysisRequest::new("span").inputs([two(1, 0, 0), two(2, 3, 0), two(3, 0, 2), two(4, 4, 2)])
}

/// Everything observable about a report except timing and cache deltas
/// (which legitimately differ between sequential and parallel runs) —
/// and `workers`, which is exactly what must differ.
fn fingerprint(report: &Report) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{} runs={} traces={} faults={}\n",
        report.target, report.metrics.runs, report.metrics.traces, report.metrics.faulted_runs
    );
    for loc in &report.locations {
        let _ = writeln!(
            out,
            "  {} models={} snaps={} tainted={}",
            loc.location, loc.models_used, loc.snapshots_seen, loc.tainted
        );
        for inv in &loc.invariants {
            let _ = writeln!(out, "    [{}] {}", inv.spurious, inv.formula);
        }
    }
    out
}

#[test]
fn single_request_uses_multiple_workers_and_matches_sequential() {
    let request = request();
    let sequential = engine(1).analyze(&request).expect("target exists");
    let parallel = engine(4).analyze(&request).expect("target exists");

    assert!(
        sequential.locations.len() >= 4,
        "the span program must reach at least 4 locations, got {}",
        sequential.locations.len()
    );
    assert_eq!(sequential.metrics.workers, 1);
    assert!(
        parallel.metrics.workers >= 2,
        "a 4-way engine must fan a {}-location request out over multiple \
         workers, used {}",
        parallel.locations.len(),
        parallel.metrics.workers
    );

    assert_eq!(
        fingerprint(&sequential),
        fingerprint(&parallel),
        "intra-request parallelism must not change the inferred formulas"
    );
}

#[test]
fn workers_are_capped_by_reached_locations() {
    // A straight-line single-exit function reaches exactly two locations
    // (entry and exit); a 16-way engine must not claim more workers.
    let engine = Engine::builder()
        .program_source(
            "struct INode { next: INode*; data: int; } fn id(x: INode*) -> INode* { return x; }",
        )
        .expect("program parses")
        .predicates_source(PREDS)
        .expect("predicates parse")
        .parallelism(16)
        .build()
        .expect("program checks");
    let report = engine
        .analyze(
            &AnalysisRequest::new("id")
                .input(InputSpec::seeded(1).arg(ValueSpec::sll(layout(), 2))),
        )
        .expect("target exists");
    assert_eq!(report.locations.len(), 2);
    assert!(
        report.metrics.workers <= 2,
        "workers ({}) must be capped by reached locations (2)",
        report.metrics.workers
    );
}

#[test]
fn batch_requests_get_the_whole_budget_and_exact_cache_deltas() {
    // A batch runs its requests one after another, each as `analyze`
    // runs it: its locations over the whole worker budget, and its own
    // cache delta, so the reports' deltas add up to the batch's.
    let requests = vec![request(), request(), request()];
    let engine = engine(4);
    let batch = engine.analyze_all(&requests).expect("targets exist");
    for (request, report) in requests.iter().zip(&batch.reports) {
        let alone = engine.analyze(request).expect("target exists");
        assert_eq!(
            report.metrics.workers, alone.metrics.workers,
            "a batch request gets the workers `analyze` gives it"
        );
    }
    assert!(batch.cache.lookups() > 0);
    let sum = |counter: fn(&CacheStats) -> u64| -> u64 {
        batch.reports.iter().map(|r| counter(&r.cache)).sum()
    };
    assert_eq!(sum(|c| c.hits), batch.cache.hits);
    assert_eq!(sum(|c| c.warm_hits), batch.cache.warm_hits);
    assert_eq!(sum(|c| c.misses), batch.cache.misses);
}
