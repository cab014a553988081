//! Shared corpus fixtures for integration tests and examples.
//!
//! The "list corpus" — four list functions (`reverse`, `traverse`,
//! `append`, `last`) over one node type, with `sll`/`lseg` predicates
//! — is used by most integration tests, by `sling-serve --corpus`, and
//! by the serving and cache examples. [`ListCorpus`] is the single
//! definition they all build from, parameterized by node-type name so
//! concurrent consumers define distinct struct types (interned symbols
//! are global) and entailment caches never alias across fixtures.
//!
//! # Examples
//!
//! ```
//! use sling::Engine;
//! use sling_suite::fixtures::ListCorpus;
//!
//! let corpus = ListCorpus::new("DocNode");
//! let engine = Engine::builder()
//!     .program_source(&corpus.program())?
//!     .predicates_source(&corpus.predicates())?
//!     .build()?;
//! let batch = engine.analyze_all(&corpus.batch(1))?;
//! assert_eq!(batch.reports.len(), 4);
//! assert!(batch.invariant_count() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use sling::{AnalysisRequest, InputSpec, ListLayout, ValueSpec};
use sling_logic::Symbol;

/// The four-function list corpus, parameterized by node-type name.
#[derive(Debug, Clone)]
pub struct ListCorpus {
    node: String,
}

impl ListCorpus {
    /// A corpus over nodes of struct type `node` (pick a name unique to
    /// the consumer: struct types are globally interned).
    pub fn new(node: impl Into<String>) -> ListCorpus {
        ListCorpus { node: node.into() }
    }

    /// The node-type name this corpus was built with.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// MiniC source: `reverse` (loop head `@rev`), `traverse` (loop
    /// head `@walk`), and the recursive `append` and `last`.
    pub fn program(&self) -> String {
        let n = &self.node;
        format!(
            "
    struct {n} {{ next: {n}*; data: int; }}
    fn reverse(x: {n}*) -> {n}* {{
        var r: {n}* = null;
        while @rev (x != null) {{
            var t: {n}* = x->next;
            x->next = r;
            r = x;
            x = t;
        }}
        return r;
    }}
    fn traverse(x: {n}*) -> {n}* {{
        var c: {n}* = x;
        while @walk (c != null) {{
            c = c->next;
        }}
        return x;
    }}
    fn append(x: {n}*, y: {n}*) -> {n}* {{
        if (x == null) {{ return y; }}
        var t: {n}* = append(x->next, y);
        x->next = t;
        return x;
    }}
    fn last(x: {n}*) -> {n}* {{
        if (x == null) {{ return null; }}
        if (x->next == null) {{ return x; }}
        return last(x->next);
    }}"
        )
    }

    /// The predicate library the corpus is analyzed against: `sll` and
    /// `lseg` over the corpus node type.
    pub fn predicates(&self) -> String {
        let n = &self.node;
        format!(
            "
    pred sll(x: {n}*) := emp & x == nil
       | exists u, d. x -> {n}{{next: u, data: d}} * sll(u);
    pred lseg(x: {n}*, y: {n}*) := emp & x == y
       | exists u, d. x -> {n}{{next: u, data: d}} * lseg(u, y);"
        )
    }

    /// The node layout for spec-built inputs.
    pub fn layout(&self) -> ListLayout {
        ListLayout {
            ty: Symbol::intern(&self.node),
            nfields: 2,
            next: 0,
            prev: None,
            data: Some(1),
        }
    }

    /// A seeded one-list input spec (`n` nodes).
    pub fn one(&self, seed: u64, n: usize) -> InputSpec {
        InputSpec::seeded(seed).arg(ValueSpec::sll(self.layout(), n))
    }

    /// A seeded two-list input spec (`n` and `m` nodes).
    pub fn two(&self, seed: u64, n: usize, m: usize) -> InputSpec {
        InputSpec::seeded(seed)
            .arg(ValueSpec::sll(self.layout(), n))
            .arg(ValueSpec::sll(self.layout(), m))
    }

    /// The standard batch: per round, four requests across the four
    /// targets (ten inputs), with round-distinct seeds.
    pub fn batch(&self, rounds: u64) -> Vec<AnalysisRequest> {
        let mut out = Vec::new();
        for round in 0..rounds {
            let s = round * 100;
            out.push(AnalysisRequest::new("reverse").inputs([
                self.one(s + 1, 0),
                self.one(s + 2, 4),
                self.one(s + 3, 8),
            ]));
            out.push(
                AnalysisRequest::new("traverse").inputs([self.one(s + 4, 0), self.one(s + 5, 6)]),
            );
            out.push(AnalysisRequest::new("append").inputs([
                self.two(s + 6, 0, 2),
                self.two(s + 7, 3, 0),
                self.two(s + 8, 3, 3),
            ]));
            out.push(
                AnalysisRequest::new("last").inputs([self.one(s + 9, 1), self.one(s + 10, 5)]),
            );
        }
        out
    }
}
