//! The corpus formula gate: runs SLING over all 157 corpus programs
//! (`run_corpus` with the default configuration, the Table 1 run) and
//! fails unless the output is the recorded one, formula for formula.
//!
//! It counts invariants and spurious invariants and folds one
//! `bench location spurious formula` line per invariant, in report
//! order, into an FNV-1a digest. A change that must not alter output
//! (a performance or deletion change) keeps all three equal to the
//! constants below; a change that alters output on purpose updates
//! them and says why.
//!
//! ```sh
//! cargo run --release -p sling-examples --example corpus_digest
//! ```
//!
//! Exit status: 0 when all three match, 1 otherwise.

use sling_suite::eval::{run_corpus, EvalConfig};

/// Invariants the corpus run infers.
const EXPECTED_INVARIANTS: usize = 1380;
/// Of those, invariants marked spurious.
const EXPECTED_SPURIOUS: usize = 213;
/// FNV-1a (64-bit) over every invariant's line.
const EXPECTED_DIGEST: u64 = 0xcfbb_7dfc_3205_398d;

fn main() {
    let runs = run_corpus(&EvalConfig::default(), None);
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
    if (invariants, spurious, digest) != (EXPECTED_INVARIANTS, EXPECTED_SPURIOUS, EXPECTED_DIGEST) {
        eprintln!(
            "corpus output changed: expected {EXPECTED_INVARIANTS} invariant(s), \
             {EXPECTED_SPURIOUS} spurious, digest {EXPECTED_DIGEST:016x}"
        );
        std::process::exit(1);
    }
}
