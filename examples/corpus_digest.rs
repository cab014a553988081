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
//! Exit status: 0 when all three match and no pair is rejected, 1
//! otherwise.

use sling::{collect_models, select_models};
use sling_checker::CheckCtx;
use sling_logic::Symbol;
use sling_suite::eval::{engine_for, run_corpus, BenchRun, EvalConfig};

/// Invariants the corpus run infers.
const EXPECTED_INVARIANTS: usize = 1380;
/// Of those, invariants marked spurious.
const EXPECTED_SPURIOUS: usize = 213;
/// FNV-1a (64-bit) over every invariant's line.
const EXPECTED_DIGEST: u64 = 0xcfbb_7dfc_3205_398d;

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

fn main() {
    let config = EvalConfig::default();
    let runs = run_corpus(&config, None);
    let (mut invariants, mut spurious) = (0usize, 0usize);
    // 64-bit FNV-1a.
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for run in &runs {
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

    println!(
        "corpus digest: {} program(s), {invariants} invariant(s), {spurious} spurious, \
         digest {digest:016x}",
        runs.len()
    );
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
    if (invariants, spurious, digest) != (EXPECTED_INVARIANTS, EXPECTED_SPURIOUS, EXPECTED_DIGEST) {
        eprintln!(
            "corpus output changed: expected {EXPECTED_INVARIANTS} invariant(s), \
             {EXPECTED_SPURIOUS} spurious, digest {EXPECTED_DIGEST:016x}"
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
