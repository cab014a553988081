//! Parallel batch execution: `analyze_all` with several worker threads
//! must produce reports formula-for-formula identical to a sequential
//! run, in request order, while streaming each report to the sink as
//! soon as it is done.

use sling::{AnalysisRequest, Engine, Report};
use sling_suite::fixtures::ListCorpus;

/// Four list functions over one node type: a multi-target batch program.
fn corpus() -> ListCorpus {
    ListCorpus::new("ParBatchNode")
}

fn engine(parallelism: usize) -> Engine {
    let corpus = corpus();
    Engine::builder()
        .program_source(&corpus.program())
        .expect("program parses")
        .predicates_source(&corpus.predicates())
        .expect("predicates parse")
        .parallelism(parallelism)
        .build()
        .expect("program checks")
}

/// Eight requests across the four targets, all spec-built.
fn batch() -> Vec<AnalysisRequest> {
    let c = corpus();
    vec![
        AnalysisRequest::new("reverse").inputs([c.one(1, 0), c.one(2, 3), c.one(3, 6)]),
        AnalysisRequest::new("traverse").inputs([c.one(4, 0), c.one(5, 4)]),
        AnalysisRequest::new("append").inputs([
            c.two(6, 0, 0),
            c.two(7, 0, 2),
            c.two(8, 3, 0),
            c.two(9, 3, 2),
        ]),
        AnalysisRequest::new("last").inputs([c.one(10, 0), c.one(11, 1), c.one(12, 5)]),
        AnalysisRequest::new("reverse").inputs([c.one(13, 0), c.one(14, 8)]),
        AnalysisRequest::new("traverse").inputs([c.one(15, 0), c.one(16, 7)]),
        AnalysisRequest::new("append").inputs([c.two(17, 2, 2)]),
        AnalysisRequest::new("last").inputs([c.one(18, 4)]),
    ]
}

/// Everything observable about a report except timing and cache deltas
/// (which legitimately differ between sequential and parallel runs).
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
fn parallel_reports_match_sequential_byte_for_byte() {
    let requests = batch();

    let sequential = engine(1).analyze_all(&requests).expect("targets exist");
    let parallel = engine(4).analyze_all(&requests).expect("targets exist");

    assert_eq!(sequential.reports.len(), requests.len());
    assert_eq!(parallel.reports.len(), requests.len());

    // Request-order assembly: report i answers request i.
    for (request, report) in requests.iter().zip(&parallel.reports) {
        assert_eq!(request.target, report.target);
    }

    // Formula-for-formula identical, location for location.
    for (i, (seq, par)) in sequential.reports.iter().zip(&parallel.reports).enumerate() {
        assert_eq!(
            fingerprint(seq),
            fingerprint(par),
            "request {i} diverged between sequential and parallel runs"
        );
    }

    // Both runs did real work and the sharded cache accounted for it:
    // hit/miss deltas sum to the lookups the batch actually issued.
    assert!(parallel.cache.lookups() > 0);
    assert_eq!(
        parallel.cache.lookups(),
        parallel.cache.hits + parallel.cache.misses
    );
    assert!(
        parallel.cache.hits > 0,
        "repeated list shapes must hit across the batch: {:?}",
        parallel.cache
    );
}

#[test]
fn streaming_sink_runs_while_the_batch_is_in_flight() {
    let requests = batch();
    let engine = engine(4);
    let mut seen: Vec<(usize, String)> = Vec::new();
    let batch_report = engine
        .analyze_all_with(&requests, |index, report| {
            seen.push((index, report.target.to_string()));
        })
        .expect("targets exist");

    assert_eq!(seen.len(), requests.len(), "one sink call per request");
    for (i, (index, target)) in seen.iter().enumerate() {
        assert_eq!(*index, i, "the sink sees the requests in order");
        assert_eq!(target, requests[i].target.as_str());
    }
    // The assembled batch still has them in request order.
    for (request, report) in requests.iter().zip(&batch_report.reports) {
        assert_eq!(request.target, report.target);
    }
}
