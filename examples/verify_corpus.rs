//! The corpus verification gate: runs every benchmark with the static
//! verification post-pass on and fails if any invariant is still
//! graded `Refuted` after the final counterexample-guided refinement
//! round — either the refinement loop found a real countermodel the
//! dynamic run cannot explain away (an inference bug), or the prover
//! regressed.
//!
//! ```sh
//! cargo run --release -p sling-examples --example verify_corpus
//! # optional bench-name substring filters:
//! cargo run --release -p sling-examples --example verify_corpus -- glib_sll
//! ```
//!
//! Exit status: 0 when no refutation survives (grades printed), 1 when
//! one does or when nothing was graded, 2 on misuse.

use sling::InvariantGrade;
use sling_suite::eval::{grade_summary, run_corpus, EvalConfig};

fn main() {
    let filters: Vec<String> = std::env::args().skip(1).collect();
    let mut config = EvalConfig::default();
    config.sling.verify = true;

    let filter = |b: &sling_suite::program::Bench| {
        filters.is_empty() || filters.iter().any(|f| b.name.contains(f.as_str()))
    };
    let runs = run_corpus(&config, Some(&filter));
    if runs.is_empty() {
        eprintln!("no benchmark matches {filters:?}");
        std::process::exit(2);
    }

    let mut surviving_refutations = 0usize;
    for run in &runs {
        let m = &run.report.metrics;
        println!(
            "{:<24} invs={:<3} verified={:<3} confirmed={:<3} unknown={:<3} \
             refuted={} (initial {}, {} refinement round(s), {:.3}s)",
            run.bench.name,
            run.report.invariant_count(),
            m.verified,
            m.confirmed,
            m.unknown,
            m.refuted,
            m.refuted_initial,
            m.cegir_rounds,
            m.verify_seconds,
        );
        for loc in &run.report.locations {
            for inv in &loc.invariants {
                if inv.grade == InvariantGrade::Refuted {
                    surviving_refutations += 1;
                    eprintln!("  REFUTED at {}: {}", loc.location, inv.formula);
                }
            }
        }
    }

    let summary = grade_summary(&runs);
    match summary.precision() {
        Some(precision) => println!(
            "corpus: {} verified, {} confirmed, {} unknown, {} refuted \
             ({} pre-refinement refutations, {} refinement round(s)) — \
             graded precision {:.3}",
            summary.verified,
            summary.confirmed,
            summary.unknown,
            summary.refuted,
            summary.refuted_initial,
            summary.cegir_rounds,
            precision,
        ),
        None => {
            eprintln!("corpus: no invariant graded although the pass is configured");
            std::process::exit(1);
        }
    }
    if surviving_refutations > 0 {
        eprintln!(
            "{surviving_refutations} refutation(s) survived the final \
             refinement round"
        );
        std::process::exit(1);
    }
}
