//! Metamorphic test: reports must not depend on the order in which
//! symbols were interned.
//!
//! `Symbol` ids are handed out in interning order, while `Symbol`'s `Ord`
//! is textual; every map the pipeline iterates is keyed by that textual
//! order, so output is the same whatever the interner saw first. This
//! test pins that property. It re-runs its own binary as three fresh
//! processes (the interner is global and never forgets, so a fresh
//! process is the only clean slate): one analyzes straight away, the
//! others first intern every identifier of the analyzed sources, plus a
//! range of fresh-variable names, in textual order or in reverse, so
//! that id order and textual order agree, or disagree, for every pair
//! of those names. The three reports must be identical, formula for
//! formula. (Source order is close to textual order for some pairs and
//! to its reverse for others, so it alone can agree with either.)

use std::collections::BTreeSet;
use std::process::{Command, Stdio};

use sling::Engine;
use sling_logic::Symbol;
use sling_suite::corpus::all_benches;
use sling_suite::eval::{run_corpus, EvalConfig};
use sling_suite::fixtures::ListCorpus;
use sling_suite::predicates::predicates_source;
use sling_suite::program::Category;

/// The Table 1 categories analyzed besides the list corpus: cheap enough
/// for a debug build, and their invariants carry existentials. The
/// doubly linked lists' invariants move when the split boundary's order
/// follows intern order, which the tree traversals' do not.
const CATEGORIES: &[Category] = &[Category::TreeTraversal, Category::Dll];

/// Fresh names `u<n>` (the pipeline's binders) are pre-interned for `n`
/// up to this.
const FRESH_NAMES: usize = 600;

/// Marks the report lines in a child's stdout.
const LINE_MARK: &str = "invariant\t";

const CHILD_SOURCE_ORDER: &str = "child_interns_in_source_order";
const CHILD_TEXTUAL_ORDER: &str = "child_interns_in_textual_order";
const CHILD_REVERSE_ORDER: &str = "child_interns_in_reverse_textual_order";

fn list_corpus() -> ListCorpus {
    ListCorpus::new("InternOrderNode")
}

/// Every identifier in the analyzed sources and predicate libraries,
/// plus the fresh names and the ghost variable `res`, which the pipeline
/// interns itself.
fn names() -> BTreeSet<String> {
    let corpus = list_corpus();
    let mut texts = vec![corpus.program(), corpus.predicates()];
    texts.extend(CATEGORIES.iter().map(|&c| predicates_source(c).to_owned()));
    texts.extend(
        all_benches()
            .iter()
            .filter(|b| CATEGORIES.contains(&b.category))
            .map(|b| b.source.to_owned()),
    );
    let mut names = BTreeSet::new();
    for text in &texts {
        names.extend(
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
                .map(str::to_owned),
        );
    }
    for n in 0..=FRESH_NAMES {
        names.insert(format!("u{n}"));
    }
    names.insert("res".to_owned());
    names
}

/// Analyzes the list corpus and the categories, and prints one marked
/// `target location spurious formula` line per invariant.
fn print_report() {
    let corpus = list_corpus();
    let engine = Engine::builder()
        .program_source(&corpus.program())
        .unwrap()
        .predicates_source(&corpus.predicates())
        .unwrap()
        .build()
        .unwrap();
    let batch = engine.analyze_all(&corpus.batch(1)).unwrap();
    let mut reports: Vec<(String, _)> = batch
        .reports
        .into_iter()
        .map(|r| (r.target.to_string(), r))
        .collect();
    reports.extend(
        run_corpus(
            &EvalConfig::default(),
            Some(&|b| CATEGORIES.contains(&b.category)),
        )
        .into_iter()
        .map(|run| (run.bench.name.to_owned(), run.report)),
    );
    for (name, report) in &reports {
        for loc in &report.locations {
            for inv in &loc.invariants {
                println!(
                    "{LINE_MARK}{name} {} {} {}",
                    loc.location, inv.spurious, inv.formula
                );
            }
        }
    }
}

#[test]
#[ignore = "child process of reports_do_not_depend_on_intern_order"]
fn child_interns_in_source_order() {
    print_report();
}

#[test]
#[ignore = "child process of reports_do_not_depend_on_intern_order"]
fn child_interns_in_textual_order() {
    for name in &names() {
        Symbol::intern(name);
    }
    print_report();
}

#[test]
#[ignore = "child process of reports_do_not_depend_on_intern_order"]
fn child_interns_in_reverse_textual_order() {
    for name in names().iter().rev() {
        Symbol::intern(name);
    }
    print_report();
}

#[test]
fn reports_do_not_depend_on_intern_order() {
    let exe = std::env::current_exe().expect("test binary path");
    let children = [CHILD_SOURCE_ORDER, CHILD_TEXTUAL_ORDER, CHILD_REVERSE_ORDER].map(|child| {
        Command::new(&exe)
            .args([child, "--exact", "--ignored", "--nocapture"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn child test process")
    });
    let [source_order, textual_order, reverse_order] = children.map(|child| {
        let out = child.wait_with_output().expect("child test process");
        assert!(out.status.success(), "child failed: {}", out.status);
        String::from_utf8(out.stdout)
            .expect("utf-8 report")
            .lines()
            .filter_map(|l| l.strip_prefix(LINE_MARK).map(str::to_owned))
            .collect::<Vec<_>>()
    });
    assert!(
        source_order.iter().any(|l| l.contains("exists")),
        "the analyzed invariants should bind existentials"
    );
    for (other, order) in [
        (textual_order, "textual"),
        (reverse_order, "reverse textual"),
    ] {
        assert_eq!(source_order.len(), other.len(), "{order} order");
        for (a, b) in source_order.iter().zip(&other) {
            assert_eq!(
                a, b,
                "report differs with symbols interned in {order} order"
            );
        }
    }
}
