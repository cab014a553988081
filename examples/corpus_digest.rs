//! The corpus formula gate: runs SLING over all 157 corpus programs
//! (`run_corpus` with the default configuration, the Table 1 run) and
//! fails unless the output is the recorded one, formula for formula,
//! and sound on its traces.
//!
//! It counts invariants and spurious invariants and folds one
//! `bench location spurious formula` line per invariant, in report
//! order, into an FNV-1a digest. A change that must not alter output
//! (a performance or deletion change) keeps all three equal to the
//! constants below; a change that alters output on purpose updates
//! them and says why.
//!
//! The questions inference asks are pinned too: the cached pass must
//! make the recorded number of checker lookups. A change that asks the
//! checker more (say, a weaker footprint summary, so that candidates
//! that cannot cover a cell are checked again) or fewer questions
//! updates the constant and says why.
//!
//! The cache must not change a formula either, so the gate runs the
//! corpus a second time with the cache off: each program gets a fresh
//! cache of capacity 0, which stores nothing, so every checker query is
//! a search. That pass must report 0 hits and the same three constants.
//! Nor may the cache change which questions inference asks: the
//! cache-off pass's searches must equal the cached pass's lookups, hits
//! plus misses.
//!
//! The paper's Table 2 is pinned as well: each pass sums the rows of
//! `table2` (documented properties, found by both SLING and the
//! bi-abduction baseline, by the baseline only, by SLING only, by
//! neither) and must equal the recorded totals, so a change in
//! `sling_suite::matcher::subsumes` or in `sling-biabduce` that moves
//! the comparison fails here.
//!
//! Trace soundness is the paper's contract: every non-spurious invariant
//! holds on every model it was inferred from. The gate re-collects each
//! program's models with `collect_models`, selects them per location as
//! inference does (`select_models`), and checks every such (model,
//! invariant) pair with an uncached checker, so neither the
//! canonicalizing cache nor a snapshot can vouch for a verdict.
//!
//! ```sh
//! cargo run --release -p sling-examples --example corpus_digest
//! ```
//!
//! Exit status: 0 when both passes match and give the recorded Table 2
//! totals, the cached pass makes the recorded number of lookups, the
//! cache-off pass has no hit and asks as many questions as the cached
//! pass, and no pair is rejected; 1 otherwise.

use std::sync::Arc;

use sling::{collect_models, select_models, CheckCache};
use sling_checker::CheckCtx;
use sling_logic::Symbol;
use sling_suite::corpus::all_benches;
use sling_suite::eval::{engine_for, run_bench_cached, run_corpus, table2, BenchRun, EvalConfig};

/// Invariants the corpus run infers.
const EXPECTED_INVARIANTS: usize = 1380;
/// Of those, invariants marked spurious.
const EXPECTED_SPURIOUS: usize = 213;
/// FNV-1a (64-bit) over every invariant's line.
const EXPECTED_DIGEST: u64 = 0xcfbb_7dfc_3205_398d;
/// Checker lookups the cached pass makes, hits plus misses.
const EXPECTED_LOOKUPS: u64 = 38_669;
/// Table 2 summed over the categories: documented properties, found by
/// both tools, by the baseline only, by SLING only, by neither.
const EXPECTED_TABLE2: [usize; 5] = [216, 7, 1, 118, 90];

/// The rows of Table 2 for `runs`, summed in [`EXPECTED_TABLE2`]'s order.
fn table2_totals(runs: &[BenchRun]) -> [usize; 5] {
    table2(runs)
        .iter()
        .fold([0; 5], |[total, both, s2, sling, neither], row| {
            [
                total + row.total,
                both + row.both,
                s2 + row.s2_only,
                sling + row.sling_only,
                neither + row.neither,
            ]
        })
}

/// `totals` as the gate prints them.
fn table2_line(totals: [usize; 5]) -> String {
    let [total, both, s2, sling, neither] = totals;
    format!(
        "table 2: {total} documented, {both} both, {s2} baseline only, \
         {sling} SLING only, {neither} neither"
    )
}

/// Checks every non-spurious invariant of a run against every model its
/// location selected, re-collected; returns the pairs checked and a
/// `bench location: formula` line per rejected pair.
fn trace_soundness(run: &BenchRun, config: &EvalConfig) -> (usize, Vec<String>) {
    let engine = engine_for(&run.bench, config, None);
    let collected = collect_models(
        engine.program(),
        engine.compiled(),
        Symbol::intern(run.bench.target),
        &run.bench.inputs(config.seed),
        config.sling.vm,
        config.sling.trace,
        config.sling.executor,
    );
    let by_loc = collected.by_location();
    let uncached = CheckCtx::new(engine.types(), engine.preds()).with_config(config.sling.check);
    let (mut pairs, mut rejected) = (0, Vec::new());
    for loc in &run.report.locations {
        let snaps = select_models(&by_loc[&loc.location], &config.sling);
        for inv in loc.invariants.iter().filter(|inv| !inv.spurious) {
            for snap in &snaps {
                pairs += 1;
                if uncached.check(&snap.model, &inv.formula).is_none() {
                    rejected.push(format!(
                        "{} {}: {}",
                        run.bench.name, loc.location, inv.formula
                    ));
                }
            }
        }
    }
    (pairs, rejected)
}

/// The invariant count, the spurious count and the digest of `runs`.
fn tally(runs: &[BenchRun]) -> (usize, usize, u64) {
    let (mut invariants, mut spurious) = (0usize, 0usize);
    // 64-bit FNV-1a.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for run in runs {
        for loc in &run.report.locations {
            for inv in &loc.invariants {
                invariants += 1;
                spurious += usize::from(inv.spurious);
                let line = format!(
                    "{} {} {} {}\n",
                    run.bench.name, loc.location, inv.spurious, inv.formula
                );
                for b in line.bytes() {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    (invariants, spurious, digest)
}

fn main() {
    let config = EvalConfig::default();
    let expected = (EXPECTED_INVARIANTS, EXPECTED_SPURIOUS, EXPECTED_DIGEST);
    let runs = run_corpus(&config, None);
    let cached = tally(&runs);
    let lookups: u64 = runs.iter().map(|run| run.report.cache.lookups()).sum();
    let (invariants, spurious, hash) = cached;
    println!(
        "corpus digest: {} program(s), {invariants} invariant(s), {spurious} spurious, \
         digest {hash:016x}, {lookups} lookup(s)",
        runs.len()
    );

    let off: Vec<BenchRun> = all_benches()
        .iter()
        .map(|bench| run_bench_cached(bench, &config, Some(Arc::new(CheckCache::with_capacity(0)))))
        .collect();
    let uncached = tally(&off);
    let hits: u64 = off.iter().map(|run| run.report.cache.hits).sum();
    let misses: u64 = off.iter().map(|run| run.report.cache.misses).sum();
    let (invariants, spurious, hash) = uncached;
    println!(
        "cache off: {} program(s), {invariants} invariant(s), {spurious} spurious, \
         digest {hash:016x}, {hits} hit(s), {misses} miss(es)",
        off.len()
    );

    let table2_cached = table2_totals(&runs);
    let table2_off = table2_totals(&off);
    println!("{}", table2_line(table2_cached));

    let (mut pairs, mut rejected) = (0, Vec::new());
    for run in &runs {
        let (n, bad) = trace_soundness(run, &config);
        pairs += n;
        rejected.extend(bad);
    }
    println!(
        "trace soundness: {pairs} (model, invariant) pair(s), {} rejected",
        rejected.len()
    );

    let mut failed = false;
    for (pass, got) in [("corpus", cached), ("cache-off", uncached)] {
        if got != expected {
            eprintln!(
                "{pass} output changed: expected {EXPECTED_INVARIANTS} invariant(s), \
                 {EXPECTED_SPURIOUS} spurious, digest {EXPECTED_DIGEST:016x}"
            );
            failed = true;
        }
    }
    for (pass, got) in [("corpus", table2_cached), ("cache-off", table2_off)] {
        if got != EXPECTED_TABLE2 {
            eprintln!(
                "{pass} Table 2 changed: {}, expected {}",
                table2_line(got),
                table2_line(EXPECTED_TABLE2)
            );
            failed = true;
        }
    }
    if lookups != EXPECTED_LOOKUPS {
        eprintln!(
            "the corpus pass made {lookups} lookup(s), expected {EXPECTED_LOOKUPS}: \
             inference asks the checker other questions"
        );
        failed = true;
    }
    if hits != 0 {
        eprintln!("the cache-off pass had {hits} cache hit(s)");
        failed = true;
    }
    if misses != lookups {
        eprintln!(
            "the cache-off pass made {misses} search(es), the cached pass {lookups} \
             lookup(s): the cache changed which questions inference asks"
        );
        failed = true;
    }
    for line in &rejected {
        eprintln!("rejected on a model it was inferred from: {line}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
