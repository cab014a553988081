//! Quickstart: infer separation-logic invariants for a tiny list program
//! through the engine API, with declarative `InputSpec` test inputs.
//!
//! ```sh
//! cargo run -p sling-examples --example quickstart
//! ```

use sling::{AnalysisRequest, Engine, InputSpec, ListLayout, ValueSpec};
use sling_lang::Location;
use sling_logic::Symbol;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the engine once: the program (breakpoints: entry/exits are
    //    automatic, the loop head is labelled @inv), the predicate
    //    vocabulary SLING searches over, and the default configuration.
    let engine = Engine::builder()
        .program_source(
            "struct SNode { next: SNode*; data: int; }
             fn reverse(x: SNode*) -> SNode* {
                 var r: SNode* = null;
                 while @inv (x != null) {
                     var t: SNode* = x->next;
                     x->next = r;
                     r = x;
                     x = t;
                 }
                 return r;
             }",
        )?
        .predicates_source(
            "pred sll(x: SNode*) := emp & x == nil
               | exists u, d. x -> SNode{next: u, data: d} * sll(u);
             pred lseg(x: SNode*, y: SNode*) := emp & x == y
               | exists u, d. x -> SNode{next: u, data: d} * lseg(u, y);",
        )?
        .build()?;

    // 2. Describe the work declaratively: the target function plus test
    //    inputs — nil and seeded random lists (the paper uses size 10).
    //    Specs are plain data: Send + Sync + Clone + Debug, so the same
    //    request can be logged, replayed, or fanned out across threads.
    let layout = ListLayout {
        ty: Symbol::intern("SNode"),
        nfields: 2,
        next: 0,
        prev: None,
        data: Some(1),
    };
    let request = AnalysisRequest::new("reverse").inputs(
        [0usize, 1, 10]
            .into_iter()
            .enumerate()
            .map(|(i, n)| InputSpec::seeded(i as u64).arg(ValueSpec::sll(layout, n))),
    );

    // 3. Run SLING. The same engine can keep serving requests — further
    //    inputs, other functions — with its entailment cache warm, and
    //    `analyze_all` serves whole batches, each request's locations
    //    over every worker thread.
    let report = engine.analyze(&request)?;

    println!(
        "reverse: {} runs, {} traces, {:.2}s; cache: {}\n",
        report.metrics.runs, report.metrics.traces, report.metrics.seconds, report.cache
    );
    for loc in [
        Location::Entry,
        Location::LoopHead(Symbol::intern("inv")),
        Location::Exit(0),
    ] {
        let Some(analysis) = report.at(loc) else {
            continue;
        };
        println!("at {loc} ({} models):", analysis.models_used);
        for inv in analysis.invariants.iter().take(3) {
            println!("    {}", inv.formula);
        }
    }
    Ok(())
}
