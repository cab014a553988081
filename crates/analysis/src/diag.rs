//! The diagnostics vocabulary: stable lint codes, typed severities, and
//! the [`Diagnostic`] / [`Diagnostics`] report types every static
//! finding in the system flows through — the CFG lints in this crate as
//! well as the re-homed predicate-productivity check from
//! [`sling_logic::check_pred_env`].

use std::fmt;

use sling_logic::{Span, Symbol, WfError};

/// Stable lint codes. These are part of the public (and wire) surface:
/// codes are never renumbered, only appended.
pub mod codes {
    /// Definite use of a variable before any initialization (deny).
    pub const USE_BEFORE_INIT: &str = "SA001";
    /// Use of a variable that is uninitialized on *some* path (warning).
    pub const MAYBE_UNINIT: &str = "SA002";
    /// A stored value that no later statement or snapshot observes
    /// (warning).
    pub const DEAD_STORE: &str = "SA003";
    /// A local variable that is never read (warning).
    pub const UNUSED_VAR: &str = "SA004";
    /// A statement no control-flow path reaches (warning).
    pub const UNREACHABLE_STMT: &str = "SA005";
    /// A snapshot location no control-flow path reaches — the dynamic
    /// collector can never produce models there (deny).
    pub const UNREACHABLE_LOCATION: &str = "SA006";
    /// A pointer dereferenced on a path where it is definitely null
    /// (deny).
    pub const NULL_DEREF: &str = "SA007";
    /// An inductive predicate with an unguarded call cycle — bounded
    /// unfolding would diverge (deny; re-homed from
    /// `sling_logic::check_pred_env`).
    pub const UNPRODUCTIVE_PRED: &str = "SL001";
}

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Worth reporting, but the program is still analyzable; warnings
    /// ride along in the analysis report.
    Warning,
    /// The program is rejected: `EngineBuilder::build()` fails and the
    /// service refuses the upload.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Deny => write!(f, "error"),
        }
    }
}

/// One static finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code (see [`codes`]).
    pub code: String,
    /// Typed severity.
    pub severity: Severity,
    /// The function the finding is in, if any (predicate-environment
    /// findings have none).
    pub function: Option<Symbol>,
    /// Source span of the offending statement or expression
    /// ([`Span::DUMMY`] when the input carries no spans, e.g. predicate
    /// definitions).
    pub span: Span,
    /// Human-readable description.
    pub message: String,
    /// Secondary lines (e.g. the predicate call cycle path).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// A new finding with no function, span, or notes attached.
    pub fn new(code: &str, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code: code.to_string(),
            severity,
            function: None,
            span: Span::DUMMY,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Attaches the containing function.
    pub fn in_function(mut self, func: Symbol) -> Diagnostic {
        self.function = Some(func);
        self
    }

    /// Attaches the source span.
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = span;
        self
    }

    /// Appends a secondary note line.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Re-homes a predicate well-formedness error onto the shared
    /// diagnostics vocabulary. The message is the error's own rendering
    /// (so existing substring matches keep working); the unguarded call
    /// cycle, when there is one, becomes a structured note.
    pub fn from_wf_error(err: &WfError) -> Diagnostic {
        let mut diag = Diagnostic::new(codes::UNPRODUCTIVE_PRED, Severity::Deny, err.to_string());
        if let WfError::NotProductive { pred, cycle } = err {
            diag.function = Some(*pred);
            let path: Vec<&str> = cycle.iter().map(|s| s.as_str()).collect();
            diag = diag.with_note(format!("unguarded call cycle: {}", path.join(" -> ")));
        }
        diag
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(func) = self.function {
            write!(f, " in `{}`", func)?;
        }
        if self.span != Span::DUMMY {
            write!(f, " at {}..{}", self.span.lo, self.span.hi)?;
        }
        write!(f, ": {}", self.message)?;
        for note in &self.notes {
            write!(f, "\n  note: {note}")?;
        }
        Ok(())
    }
}

/// An ordered collection of findings (source order within a function,
/// function order within a program).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Diagnostics {
    /// The findings.
    pub items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty report.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing was found.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the findings.
    pub fn iter(&self) -> std::slice::Iter<'_, Diagnostic> {
        self.items.iter()
    }

    /// Appends one finding.
    pub fn push(&mut self, diag: Diagnostic) {
        self.items.push(diag);
    }

    /// Appends all findings from `other`.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// Number of deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.iter().filter(|d| d.severity == Severity::Deny).count()
    }

    /// True when any finding is deny-level.
    pub fn has_deny(&self) -> bool {
        self.iter().any(|d| d.severity == Severity::Deny)
    }

    /// The deny-level findings only.
    pub fn denies(&self) -> impl Iterator<Item = &Diagnostic> {
        self.iter().filter(|d| d.severity == Severity::Deny)
    }

    /// The warnings only.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.iter().filter(|d| d.severity == Severity::Warning)
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Diagnostics {
    type Item = &'a Diagnostic;
    type IntoIter = std::slice::Iter<'a, Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl IntoIterator for Diagnostics {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}
