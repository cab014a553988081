//! Replaying the list corpus through the analysis service.
//!
//! Boots a `sling-serve` service (in-process on an ephemeral loopback
//! port by default), replays the four-function `ListCorpus` batch
//! through the blocking client, and diffs every served formula against
//! an in-process `Engine::analyze_all` over the same corpus — the two
//! must agree formula for formula, which makes this example double as
//! an end-to-end check of the wire protocol:
//!
//! ```sh
//! cargo run -p sling-examples --example serve_corpus
//! # or against an already-running server (which must serve the same corpus):
//! sling-serve --corpus ServeCorpusNode --addr 127.0.0.1:7341 &
//! cargo run -p sling-examples --example serve_corpus -- 127.0.0.1:7341
//! # a custom node-type name needs to match on both sides:
//! cargo run -p sling-examples --example serve_corpus -- 127.0.0.1:7341 CiNode
//! ```
//!
//! Exits nonzero when any served formula differs from its in-process
//! counterpart, or when the reports' cache deltas (hits, warm hits,
//! misses) of either batch do not add up to its batch delta; served,
//! those travel in the `report` and `done` frames.

use std::time::Duration;

use sling::{BatchReport, CacheStats, Engine, Report};
use sling_serve::{Client, Service};
use sling_suite::fixtures::ListCorpus;

/// Everything formula-relevant about a report, for the served-equals-
/// in-process diff (timing and cache deltas legitimately differ).
fn fingerprint(report: &Report) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{}\n", report.target);
    for loc in &report.locations {
        let _ = writeln!(out, "  {}", loc.location);
        for inv in &loc.invariants {
            let _ = writeln!(out, "    [spurious={}] {}", inv.spurious, inv.formula);
        }
    }
    out
}

/// Whether the reports' cache deltas of `batch` add up to its batch
/// delta, counter by counter.
fn deltas_add_up(batch: &BatchReport) -> bool {
    let sum = |counter: fn(&CacheStats) -> u64| -> u64 {
        batch.reports.iter().map(|r| counter(&r.cache)).sum()
    };
    sum(|c| c.hits) == batch.cache.hits
        && sum(|c| c.warm_hits) == batch.cache.warm_hits
        && sum(|c| c.misses) == batch.cache.misses
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let addr = std::env::args().nth(1);
    let node = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "ServeCorpusNode".to_string());
    let corpus = ListCorpus::new(&node);
    let batch = corpus.batch(1);

    // The in-process reference: same corpus, same engine defaults.
    let reference = Engine::builder()
        .program_source(&corpus.program())?
        .predicates_source(&corpus.predicates())?
        .build()?
        .analyze_all(&batch)?;

    // The served run: an external server when an address was given,
    // else an in-process service on an ephemeral loopback port.
    let local = match addr {
        Some(_) => None,
        None => {
            let engine = Engine::builder()
                .program_source(&corpus.program())?
                .predicates_source(&corpus.predicates())?
                .build()?;
            Some(Service::bind(engine, "127.0.0.1:0")?)
        }
    };
    let target = match (&addr, &local) {
        (Some(addr), _) => addr.clone(),
        (None, Some(service)) => service.local_addr().to_string(),
        (None, None) => unreachable!(),
    };

    let mut client = Client::connect_retry(target.as_str(), Duration::from_secs(10))?;
    println!(
        "connected to {target} ({} warm cache entries, {} workers)",
        client.warm_entries(),
        client.parallelism()
    );
    let mut streamed = 0usize;
    let served = client.analyze_all_with(&batch, |index, report| {
        streamed += 1;
        println!(
            "  streamed report {index}: {} ({} invariants)",
            report.target,
            report.invariant_count()
        );
    })?;
    assert_eq!(
        streamed,
        batch.len(),
        "every report must stream exactly once"
    );

    let mut mismatches = 0;
    for (mine, theirs) in reference.reports.iter().zip(&served.reports) {
        if fingerprint(mine) != fingerprint(theirs) {
            eprintln!(
                "MISMATCH for `{}`:\n--- in-process ---\n{}--- served ---\n{}",
                mine.target,
                fingerprint(mine),
                fingerprint(theirs)
            );
            mismatches += 1;
        }
    }
    if let Some(service) = local {
        service.shutdown()?;
    }
    if mismatches > 0 {
        return Err(format!("{mismatches} served reports diverged").into());
    }
    for (side, batch) in [("in-process", &reference), ("served", &served)] {
        if !deltas_add_up(batch) {
            return Err(format!(
                "the {side} reports' cache deltas do not add up to the batch delta ({})",
                batch.cache
            )
            .into());
        }
    }
    println!(
        "served output identical to in-process analyze_all: {} targets, {} invariants, cache {}",
        served.reports.len(),
        served
            .reports
            .iter()
            .map(Report::invariant_count)
            .sum::<usize>(),
        served.cache
    );
    Ok(())
}
