//! §5.4 "Identifying Spurious Warnings": FBInfer flags a memory leak in
//! the *correct* glib `sortMerge` because it believes `l->next` becomes
//! unreachable. SLING's invariants at that point show `l->next` is still
//! reachable through live aliases, refuting the warning — while for the
//! *buggy* `sortMerge` (the §5.4 typo), SLING's `res == nil`
//! postcondition confirms something is genuinely wrong.
//!
//! ```sh
//! cargo run -p sling-examples --example spurious_warning
//! ```

use sling_lang::Location;
use sling_suite::corpus::all_benches;
use sling_suite::eval::{run_bench, EvalConfig};

fn main() {
    // Grade every invariant with the static verification post-pass:
    // `res == nil` surviving as *Verified* is what separates a real bug
    // from an inference artifact.
    let mut config = EvalConfig::default();
    config.sling.verify = true;

    // The correct merge sort: the "leak" FBInfer reports is refuted by
    // the alias equalities in the inferred invariants.
    let real = all_benches()
        .into_iter()
        .find(|b| b.name == "glib_sll/sortReal")
        .unwrap();
    let run = run_bench(&real, &config);
    println!("== correct sortReal ==");
    if let Some(report) = run.report.at(Location::Exit(1)) {
        for inv in report.invariants.iter().take(3) {
            println!("    [{}] {}", inv.grade, inv.formula);
        }
        println!(
            "  → the result is a well-formed list reachable from `res`;\n\
             no cell is leaked at the split point. A leak warning there\n\
             is spurious.\n"
        );
    }

    // The buggy sortMerge: the unexpected `res == nil` postcondition is
    // the tell.
    let buggy = all_benches()
        .into_iter()
        .find(|b| b.name == "glib_sll/sortMerge")
        .unwrap();
    let run = run_bench(&buggy, &config);
    println!("== buggy sortMerge (the paper's typo) ==");
    if let Some(report) = run.report.at(Location::Exit(0)) {
        for inv in report.invariants.iter().take(3) {
            println!("    [{}] {}", inv.grade, inv.formula);
        }
    }
    println!(
        "  → SLING reports the result is always nil — and the verifier\n\
         endorses it: the function returns the scratch variable instead\n\
         of the merged list (§5.4). The bug is real, not an inference\n\
         artifact."
    );
}
