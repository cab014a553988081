//! Reproduces the paper's evaluation tables from one corpus run:
//! Table 1 (per-category corpus statistics, trace counts, invariant
//! counts with spurious counts, A/S/X coverage, timing, and
//! per-invariant atom averages) and Table 2 (SLING vs. the
//! bi-abduction baseline "S2" on the documented properties).
//!
//! ```sh
//! cargo run --release -p sling-examples --example paper_tables
//! # optional category or program-name substring:
//! cargo run --release -p sling-examples --example paper_tables -- sll
//! ```

use sling_suite::eval::{run_corpus, table1, table2, EvalConfig};
use sling_suite::report::{render_table1, render_table2};
use sling_suite::Bench;

fn main() {
    let filter = std::env::args().nth(1).map(|s| s.to_lowercase());
    let keep = |b: &Bench| {
        filter.as_ref().is_none_or(|f| {
            b.category.label().to_lowercase().contains(f) || b.name.to_lowercase().contains(f)
        })
    };
    let runs = run_corpus(&EvalConfig::default(), Some(&keep));

    let rows = table1(&runs);
    println!(
        "Table 1. SLING on the benchmark corpus ({} programs)\n",
        runs.len()
    );
    println!("{}", render_table1(&rows));
    let total_time: f64 = rows.iter().map(|r| r.time).sum();
    let total_invs: usize = rows.iter().map(|r| r.invs).sum();
    let total_locs: usize = rows.iter().map(|r| r.ilocs).sum();
    if total_invs > 0 && total_locs > 0 {
        println!(
            "avg {:.2} invariants/location; {:.2}s/program; {:.2}s/invariant",
            total_invs as f64 / total_locs as f64,
            total_time / runs.len().max(1) as f64,
            total_time / total_invs as f64,
        );
    }

    println!("\nTable 2. Comparing SLING to the S2-style baseline\n");
    println!("{}", render_table2(&table2(&runs)));
}
