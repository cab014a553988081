//! End-to-end tests for the static-verification post-pass and its
//! counterexample-guided (CEGIR) refinement loop.
//!
//! The scenarios mirror the acceptance story: with verification on,
//! every reported invariant carries a grade; on a thin-input run of the
//! list corpus the prover refutes at least one over-specific candidate,
//! and the refinement loop either eliminates it (the re-collected
//! evidence kills the candidate) or re-grades it `Confirmed` (the
//! candidate survived a run on the very state the prover proposed); and
//! when nothing is refuted, the graded formulas are identical to a
//! dynamic-only run.

use sling::{AnalysisRequest, Engine, InvariantGrade, Report, SlingConfig};
use sling_lang::Location;
use sling_suite::fixtures::ListCorpus;

fn engine_for(corpus: &ListCorpus, verify: bool) -> Engine {
    Engine::builder()
        .program_source(&corpus.program())
        .unwrap()
        .predicates_source(&corpus.predicates())
        .unwrap()
        .config(SlingConfig {
            verify,
            ..SlingConfig::default()
        })
        .build()
        .unwrap()
}

/// `(location, formula, grade)` for every invariant, in report order.
fn graded_formulas(report: &Report) -> Vec<(Location, String, InvariantGrade)> {
    report
        .locations
        .iter()
        .flat_map(|loc| {
            loc.invariants
                .iter()
                .map(|i| (loc.location, i.formula.to_string(), i.grade))
        })
        .collect()
}

/// The thin-input `last` run: only single-node lists, so exit candidates
/// overfit to `next == nil` and the prover refutes them against the
/// general `sll`/`lseg` siblings.
fn thin_last_report(engine: &Engine, corpus: &ListCorpus) -> Report {
    let request = AnalysisRequest::new("last").inputs([corpus.one(1, 1), corpus.one(2, 1)]);
    engine.analyze(&request).unwrap()
}

#[test]
fn thin_inputs_provoke_refutation_and_cegir_resolves_it() {
    let corpus = ListCorpus::new("VfyThinNode");
    let engine = engine_for(&corpus, true);
    let report = thin_last_report(&engine, &corpus);

    // Every reported invariant carries a grade.
    assert!(report.invariant_count() > 0);
    for (loc, formula, grade) in graded_formulas(&report) {
        assert_ne!(
            grade,
            InvariantGrade::Ungraded,
            "ungraded invariant at {loc:?}: {formula}"
        );
    }

    // The prover refuted at least one over-specific candidate before any
    // refinement ran...
    assert!(
        report.metrics.refuted_initial >= 1,
        "thin inputs must provoke a refutation: {:?}",
        report.metrics
    );
    // ...and the CEGIR loop resolved every refutation within its round
    // bound: each starts-refuted candidate was either eliminated by the
    // re-collected evidence or re-graded Confirmed.
    assert_eq!(report.metrics.refuted, 0, "{:?}", report.metrics);
    assert!(report.metrics.cegir_rounds >= 1, "{:?}", report.metrics);
    // The engine runs at most three refinement rounds.
    assert!(report.metrics.cegir_rounds <= 3, "{:?}", report.metrics);
    // The refinement round added at least one witness-derived input.
    assert!(report.metrics.runs > 2, "{:?}", report.metrics);

    // The over-specific exit candidate is genuinely true at `last`'s
    // `return x` exit (the guard *is* `x->next == null`), so it must
    // survive re-inference on the witness state as Confirmed.
    let exit = report.at(Location::Exit(1)).expect("exit 1 reached");
    assert!(
        exit.invariants.iter().any(|i| {
            i.grade == InvariantGrade::Confirmed && i.formula.to_string().contains("next: nil")
        }),
        "expected a Confirmed next==nil candidate at Exit(1): {:?}",
        graded_formulas(&report)
    );

    // The metrics block is the grade histogram.
    for (count, grade) in [
        (report.metrics.verified, InvariantGrade::Verified),
        (report.metrics.refuted, InvariantGrade::Refuted),
        (report.metrics.confirmed, InvariantGrade::Confirmed),
        (report.metrics.unknown, InvariantGrade::Unknown),
    ] {
        assert_eq!(count, report.graded_count(grade), "{grade}");
    }
    assert!(report.metrics.verify_seconds > 0.0);
}

#[test]
fn verified_runs_are_deterministic() {
    let corpus = ListCorpus::new("VfyDetNode");
    let engine = engine_for(&corpus, true);
    let first = thin_last_report(&engine, &corpus);
    // Second run hits a warm entailment cache; formulas and grades must
    // not move.
    let second = thin_last_report(&engine, &corpus);
    assert_eq!(graded_formulas(&first), graded_formulas(&second));
    // And a cold sibling engine agrees with the warm one.
    let cold = thin_last_report(&engine_for(&corpus, true), &corpus);
    assert_eq!(graded_formulas(&first), graded_formulas(&cold));
}

#[test]
fn no_refutation_matches_the_dynamic_only_run() {
    let corpus = ListCorpus::new("VfyDynNode");
    let verified = engine_for(&corpus, true);
    let dynamic = engine_for(&corpus, false);
    // `reverse` and `traverse` on the standard inputs produce invariants
    // the prover endorses outright — no refutation, so no refinement and
    // formula-for-formula the same report as a dynamic-only run.
    for (target, inputs) in [
        ("traverse", vec![corpus.one(4, 0), corpus.one(5, 6)]),
        (
            "reverse",
            vec![corpus.one(1, 0), corpus.one(2, 4), corpus.one(3, 8)],
        ),
    ] {
        let request = AnalysisRequest::new(target).inputs(inputs);
        let with = verified.analyze(&request).unwrap();
        let without = dynamic.analyze(&request).unwrap();
        let formulas = |r: &Report| {
            graded_formulas(r)
                .into_iter()
                .map(|(l, f, _)| (l, f))
                .collect::<Vec<_>>()
        };
        assert_eq!(formulas(&with), formulas(&without), "{target}");
        assert_eq!(with.metrics.refuted_initial, 0, "{target}");
        assert_eq!(with.metrics.cegir_rounds, 0, "{target}");
        assert!(
            graded_formulas(&without)
                .iter()
                .all(|(_, _, g)| *g == InvariantGrade::Ungraded),
            "{target}: no verification configured, no grades"
        );
        assert!(
            graded_formulas(&with)
                .iter()
                .all(|(_, _, g)| *g != InvariantGrade::Ungraded),
            "{target}: every invariant graded"
        );
    }
}

/// §5.4 promoted from the `spurious_warning` example into assertions:
/// the buggy `sortMerge`'s unexpected `res == nil` postcondition is
/// *not* a verification artifact — it survives the post-pass — while
/// the correct `sortReal`'s exit invariants all earn a positive grade.
#[test]
fn sort_merge_bug_survives_verification_and_sort_real_verifies() {
    use sling_suite::corpus::all_benches;
    use sling_suite::eval::{run_bench, EvalConfig};

    let mut config = EvalConfig::default();
    config.sling.verify = true;

    // The buggy merge (the paper's typo): SLING's tell-tale `res == nil`
    // postcondition is endorsed by the prover — the bug is real, not an
    // inference artifact.
    let buggy = all_benches()
        .into_iter()
        .find(|b| b.name == "glib_sll/sortMerge")
        .unwrap();
    let run = run_bench(&buggy, &config);
    let exit = run.report.at(Location::Exit(0)).expect("exit 0 reached");
    assert!(
        exit.invariants.iter().any(|i| {
            i.grade == InvariantGrade::Verified && i.formula.to_string().contains("res == nil")
        }),
        "the res == nil postcondition must verify: {:?}",
        exit.invariants
            .iter()
            .map(|i| (i.formula.to_string(), i.grade))
            .collect::<Vec<_>>()
    );
    assert_eq!(run.report.metrics.refuted, 0);

    // The correct merge sort: every invariant at the `return list` exit
    // earns a positive grade (Verified outright, or Confirmed after the
    // refinement loop reproduced the prover's countermodel).
    let real = all_benches()
        .into_iter()
        .find(|b| b.name == "glib_sll/sortReal")
        .unwrap();
    let run = run_bench(&real, &config);
    let exit = run.report.at(Location::Exit(1)).expect("exit 1 reached");
    assert!(!exit.invariants.is_empty());
    for inv in &exit.invariants {
        assert!(
            matches!(
                inv.grade,
                InvariantGrade::Verified | InvariantGrade::Confirmed
            ),
            "sortReal exit invariant must grade positively: [{}] {}",
            inv.grade,
            inv.formula
        );
    }
    assert_eq!(run.report.metrics.refuted, 0);
}
