//! Analysis requests: what to analyze and on which inputs.
//!
//! A request pairs a target function with its test inputs, each an
//! [`InputSource`] — either a declarative [`InputSpec`] (the normal
//! case: plain data, loggable and replayable) or a [`custom
//! closure`](InputSource::custom) for inputs a spec cannot express.
//! Requests are `Send + Sync + Clone + Debug`, so one batch can be
//! cloned, logged, and shared across threads before
//! [`Engine::analyze_all`](crate::Engine::analyze_all) serves it.

use std::sync::Arc;

use sling_lang::RtHeap;
use sling_logic::Symbol;
use sling_models::Val;

use crate::spec::InputSpec;

/// Builds the argument vector for one run, allocating input structures
/// directly in the VM heap. This is the type behind
/// [`InputSource::Custom`] — shared, thread-safe, and cheap to clone.
pub type InputBuilder = Arc<dyn Fn(&mut RtHeap) -> Vec<Val> + Send + Sync>;

/// One test input: how to materialize the argument vector for one traced
/// run of the target.
#[derive(Clone)]
pub enum InputSource {
    /// A declarative, seeded [`InputSpec`] (preferred: describable and
    /// replayable).
    Spec(InputSpec),
    /// An arbitrary builder closure — the escape hatch for inputs a spec
    /// cannot express (nested structures, aliased arguments,
    /// deliberately corrupted shapes).
    Custom(InputBuilder),
}

impl InputSource {
    /// Wraps a builder closure as a custom input source.
    pub fn custom<F>(f: F) -> InputSource
    where
        F: Fn(&mut RtHeap) -> Vec<Val> + Send + Sync + 'static,
    {
        InputSource::Custom(Arc::new(f))
    }

    /// Materializes the argument vector in `heap`.
    pub fn build(&self, heap: &mut RtHeap) -> Vec<Val> {
        match self {
            InputSource::Spec(spec) => spec.build(heap),
            InputSource::Custom(f) => f(heap),
        }
    }
}

impl std::fmt::Debug for InputSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InputSource::Spec(spec) => f.debug_tuple("Spec").field(spec).finish(),
            InputSource::Custom(_) => f.write_str("Custom(<closure>)"),
        }
    }
}

impl From<InputSpec> for InputSource {
    fn from(spec: InputSpec) -> InputSource {
        InputSource::Spec(spec)
    }
}

impl From<InputBuilder> for InputSource {
    fn from(builder: InputBuilder) -> InputSource {
        InputSource::Custom(builder)
    }
}

/// One unit of work for an [`crate::Engine`]: a target function of the
/// engine's program and the test inputs to trace it on. Settings are the
/// engine's own ([`crate::EngineBuilder`]); a request carries none.
///
/// Built fluently:
///
/// ```
/// use sling::{AnalysisRequest, InputSpec, ListLayout, ValueSpec};
/// use sling_logic::Symbol;
///
/// let layout = ListLayout {
///     ty: Symbol::intern("RNode"), nfields: 2, next: 0, prev: Some(1), data: None,
/// };
/// let request = AnalysisRequest::new("concat")
///     .input(InputSpec::seeded(7).arg(ValueSpec::dll(layout, 3)))
///     .input(InputSpec::seeded(8).arg(ValueSpec::nil()));
/// assert_eq!(request.inputs.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisRequest {
    /// The function to analyze.
    pub target: Symbol,
    /// Input sources; each produces the argument vector for one traced
    /// run.
    pub inputs: Vec<InputSource>,
}

impl AnalysisRequest {
    /// A request for `target` with no inputs yet.
    pub fn new(target: impl Into<Symbol>) -> AnalysisRequest {
        AnalysisRequest {
            target: target.into(),
            inputs: Vec::new(),
        }
    }

    /// Adds one input (an [`InputSpec`] or a pre-built [`InputSource`]).
    pub fn input(mut self, source: impl Into<InputSource>) -> AnalysisRequest {
        self.inputs.push(source.into());
        self
    }

    /// Adds one custom builder closure — the escape hatch for inputs an
    /// [`InputSpec`] cannot express.
    pub fn custom<F>(self, f: F) -> AnalysisRequest
    where
        F: Fn(&mut RtHeap) -> Vec<Val> + Send + Sync + 'static,
    {
        self.input(InputSource::custom(f))
    }

    /// Adds a batch of inputs.
    pub fn inputs<I>(mut self, sources: I) -> AnalysisRequest
    where
        I: IntoIterator,
        I::Item: Into<InputSource>,
    {
        self.inputs.extend(sources.into_iter().map(Into::into));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ValueSpec;

    #[test]
    fn requests_are_send_sync_clone_debug() {
        fn assert_traits<T: Send + Sync + Clone + std::fmt::Debug>() {}
        assert_traits::<AnalysisRequest>();
        assert_traits::<InputSource>();
        assert_traits::<InputSpec>();
    }

    #[test]
    fn spec_and_custom_inputs_mix() {
        let request = AnalysisRequest::new("f")
            .input(InputSpec::seeded(1).arg(ValueSpec::int(3)))
            .custom(|_heap| vec![Val::Nil])
            .inputs([InputSpec::new(), InputSpec::seeded(2)]);
        assert_eq!(request.inputs.len(), 4);
        let text = format!("{request:?}");
        assert!(text.contains("Custom(<closure>)"), "{text}");
        assert!(text.contains("Spec"), "{text}");

        // Cloning shares custom closures instead of losing them.
        let copy = request.clone();
        let mut heap = sling_lang::RtHeap::new();
        assert_eq!(copy.inputs[1].build(&mut heap), vec![Val::Nil]);
        assert_eq!(copy.inputs[0].build(&mut heap), vec![Val::Int(3)]);
    }
}
