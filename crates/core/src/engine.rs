//! The long-lived analysis engine and its builder.
//!
//! An [`Engine`] owns everything that is expensive to set up and cheap
//! to reuse: the parsed, type-checked [`Program`], its [`TypeEnv`], the
//! [`PredEnv`] of inductive predicate definitions, its [`SlingConfig`],
//! and a shared [`CheckCache`] that memoizes checker
//! reductions across every request served. Construction goes through
//! [`EngineBuilder`] (`Engine::builder()`); work is described by
//! [`AnalysisRequest`]s and answered with [`Report`]s.
//!
//! Batch analysis ([`Engine::analyze_all`]) runs many target functions
//! against the one predicate environment; because the checker cache is
//! keyed on canonical sub-heap shapes, entailments established while
//! analyzing one function are reused by the next — the second request
//! for a list-shaped argument typically starts warm.
//!
//! # Parallelism
//!
//! The worker budget ([`EngineBuilder::parallelism`], defaulting to the
//! available cores) is spent at one level: across the locations of a
//! request. The paper's Algorithm 1 infers each location on its own
//! (its own models, fresh names and result set), so [`Engine::analyze`]
//! fans a request's per-location inference out over a scoped thread
//! pool, and [`RunMetrics::workers`](crate::RunMetrics) reports the
//! count actually used. A batch ([`Engine::analyze_all`]) runs its
//! requests in order, each over the whole budget, so every report
//! carries its own cache delta; [`Engine::analyze_all_with`] hands each
//! report to a sink as soon as it is done. The engine's entailment
//! cache is sharded, so worker threads memoize concurrently without
//! serializing on one lock.
//!
//! # Cache lifecycle
//!
//! With [`EngineBuilder::cache_path`] the entailment cache outlives the
//! process: `build()` folds the snapshot at that path into the new
//! engine's cache when one exists, and [`Engine::save_cache`] writes
//! the cache back. [`Engine::absorb_snapshot`] folds sibling processes'
//! snapshots into the live cache the same way — the scale-out story for
//! fleets sharing a snapshot directory. Both go through one fold
//! ([`sling_checker::persist::load`]): a snapshot answers only the
//! environment (program types and predicate library) it was saved
//! under, so a corrupt file or one from another environment is rejected
//! as a whole, and a key the cache already holds keeps its entry.
//! [`CacheStats::warm_hits`] reports how many queries the restored
//! entries answered.
//!
//! [`EngineBuilder::cache_capacity`] bounds the cache per shard: a new
//! entry for a full shard evicts one of its entries, whichever the
//! shard's map yields first ([`CacheStats::evictions`],
//! [`CacheStats::resident_bytes`]).
//!
//! # Examples
//!
//! ```
//! use sling::{AnalysisRequest, Engine, InputSpec, ListLayout, ValueSpec};
//! use sling_logic::Symbol;
//!
//! fn build(path: &std::path::Path) -> Result<Engine, sling::BuildError> {
//!     Engine::builder()
//!         .program_source(
//!             "struct ENode { next: ENode*; }
//!              fn walk(x: ENode*) -> ENode* {
//!                  var c: ENode* = x;
//!                  while @w (c != null) { c = c->next; }
//!                  return x;
//!              }",
//!         )?
//!         .predicates_source(
//!             "pred elist(x: ENode*) := emp & x == nil
//!                | exists u. x -> ENode{next: u} * elist(u);",
//!         )?
//!         .cache_path(path) // persistent entailment cache
//!         .build()
//! }
//!
//! let path = std::env::temp_dir().join(format!("sling-engine-doc-{}.bin", std::process::id()));
//! let layout = ListLayout {
//!     ty: Symbol::intern("ENode"), nfields: 1, next: 0, prev: None, data: None,
//! };
//! let request = AnalysisRequest::new("walk")
//!     .input(InputSpec::seeded(3).arg(ValueSpec::sll(layout, 4)));
//!
//! let cold = build(&path)?;
//! assert_eq!(cold.warm_entries(), 0);
//! let report = cold.analyze(&request)?;
//! assert!(report.invariant_count() > 0);
//! cold.save_cache()?; // snapshot for the next process
//!
//! let warm = build(&path)?;
//! assert!(warm.warm_entries() > 0);
//! let rerun = warm.analyze(&request)?;
//! assert!(rerun.cache.warm_hits > 0, "restored entries answered queries");
//! std::fs::remove_file(&path).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use sling_analysis::{analyze_program, AnalysisSettings, Diagnostic, Diagnostics, ProgramAnalysis};
use sling_checker::{persist, CacheStats, CheckCache, CheckCtx, EnvProfile, PersistError};
use sling_lang::{check_program, parse_program, Location, Program, Snapshot, TreeKind};
use sling_logic::{
    check_pred_env, parse_predicates, Footprints, PredDef, PredEnv, Symbol, TypeEnv,
};

use crate::pipeline::{infer_location, run_target, SlingConfig};
use crate::report::{BatchReport, LocationAnalysis, Report};
use crate::request::AnalysisRequest;
use crate::request::InputSource;
use crate::spec::ValueSpec;

/// Why an [`EngineBuilder`] could not produce an [`Engine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// No program was supplied.
    MissingProgram,
    /// MiniC source failed to parse.
    Parse(String),
    /// The program failed type checking.
    Type(String),
    /// Predicate source failed to parse.
    PredicateParse(String),
    /// A predicate definition was rejected (duplicate name, ill-formed
    /// body, non-decreasing recursion, ...).
    Predicate(String),
    /// The static-diagnostics pass found deny-level problems: the full
    /// findings (warnings included, for context) ride along. Produced by
    /// the lint gate enabled via [`EngineBuilder::static_analysis`] and
    /// by the always-on predicate-productivity check (`SL001`).
    Rejected(Diagnostics),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MissingProgram => {
                write!(
                    f,
                    "no program supplied: call `program(..)` or `program_source(..)`"
                )
            }
            BuildError::Parse(e) => write!(f, "program parse error: {e}"),
            BuildError::Type(e) => write!(f, "program type error: {e}"),
            BuildError::PredicateParse(e) => write!(f, "predicate parse error: {e}"),
            BuildError::Predicate(e) => write!(f, "predicate definition error: {e}"),
            BuildError::Rejected(diags) => {
                write!(
                    f,
                    "program rejected by static diagnostics ({} error{}):\n{diags}",
                    diags.deny_count(),
                    if diags.deny_count() == 1 { "" } else { "s" },
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Why a request could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The request's target is not a function of the engine's program.
    UnknownTarget(Symbol),
    /// A cell of an exact input shape ([`ValueSpec::Exact`]) does not fit
    /// the program: its type is not a declared structure, or it has a
    /// different number of fields than the declaration.
    BadExactCell {
        /// The cell's type.
        ty: Symbol,
        /// The cell's field count.
        fields: usize,
        /// The declaration's field count; `None` when `ty` is not
        /// declared.
        declared: Option<usize>,
    },
    /// A list or tree layout ([`ValueSpec::List`], [`ValueSpec::Tree`])
    /// does not fit the program: its type is not a declared structure,
    /// its `nfields` differs from the declaration, or a field role
    /// (`next`, `left`, ...) is not below `nfields`.
    BadLayout {
        /// The layout's type.
        ty: Symbol,
        /// The layout's field count.
        nfields: usize,
        /// The declaration's field count; `None` when `ty` is not
        /// declared.
        declared: Option<usize>,
        /// The first role whose index is not below `nfields`, and that
        /// index.
        role: Option<(&'static str, usize)>,
    },
    /// A list or tree layout fits its structure but not its shape: a
    /// [`TreeKind::Bst`] tree without a `data` field, a
    /// [`TreeKind::RedBlack`] tree without a `color` field, or two roles
    /// on one field index.
    BadLayoutRole {
        /// The layout's type.
        ty: Symbol,
        /// The role at fault.
        role: &'static str,
        /// The earlier role whose field index `role` repeats, and that
        /// index; `None` when the shape needs `role` and the layout
        /// gives none.
        shares: Option<(&'static str, usize)>,
    },
    /// An input spec ([`InputSpec`](crate::InputSpec)) gives a different
    /// number of arguments than the target function has parameters.
    BadArity {
        /// The request's target.
        target: Symbol,
        /// The target's parameter count.
        params: usize,
        /// The spec's argument count.
        args: usize,
    },
    /// A random integer input ([`ValueSpec::IntIn`]) whose range is
    /// empty: `lo` is above `hi`, so no value can be drawn.
    EmptyIntRange {
        /// The range's lower bound.
        lo: i64,
        /// The range's upper bound.
        hi: i64,
    },
    /// An input value spec would build more cells than one value may
    /// have: a list's `len`, a tree's `size` or an exact shape's cell
    /// count is above [`MAX_INPUT_CELLS`].
    InputTooLarge {
        /// The cells the spec would build.
        cells: usize,
    },
}

/// The most cells one input value spec may build: a list's `len`, a
/// tree's `size` or an exact shape's cell count. Inference cost grows
/// steeply with the heap, so a larger input would pin a worker, and a
/// huge one would exhaust memory while it is built. The paper's inputs
/// have 10 cells (§5.2).
pub const MAX_INPUT_CELLS: usize = 256;

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::UnknownTarget(t) => {
                write!(f, "target `{t}` is not a function of the engine's program")
            }
            AnalyzeError::BadExactCell {
                ty,
                fields,
                declared: None,
            } => write!(
                f,
                "exact input cell of type `{ty}` ({fields} field(s)): \
                 no such structure in the engine's program"
            ),
            AnalyzeError::BadExactCell {
                ty,
                fields,
                declared: Some(declared),
            } => write!(
                f,
                "exact input cell of type `{ty}` has {fields} field(s), \
                 but the structure declares {declared}"
            ),
            AnalyzeError::BadLayout {
                ty,
                nfields,
                declared,
                role,
            } => {
                write!(f, "input layout of type `{ty}` ({nfields} field(s)): ")?;
                match (declared, role) {
                    (None, _) => write!(f, "no such structure in the engine's program"),
                    (Some(_), Some((name, index))) if *declared == Some(*nfields) => {
                        write!(f, "its `{name}` field {index} is past the last field")
                    }
                    (Some(declared), _) => write!(f, "the structure declares {declared}"),
                }
            }
            AnalyzeError::BadLayoutRole {
                ty,
                role,
                shares: None,
            } => write!(
                f,
                "input layout of type `{ty}`: its shape needs a `{role}` field"
            ),
            AnalyzeError::BadLayoutRole {
                ty,
                role,
                shares: Some((other, index)),
            } => write!(
                f,
                "input layout of type `{ty}`: its `{role}` and `{other}` roles \
                 share field {index}"
            ),
            AnalyzeError::BadArity {
                target,
                params,
                args,
            } => write!(
                f,
                "target `{target}` takes {params} argument(s), but an input spec gives {args}"
            ),
            AnalyzeError::EmptyIntRange { lo, hi } => {
                write!(
                    f,
                    "random integer input in [{lo}, {hi}]: the range is empty"
                )
            }
            AnalyzeError::InputTooLarge { cells } => write!(
                f,
                "input value of {cells} cell(s): an input value has at most \
                 {MAX_INPUT_CELLS} cells"
            ),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Typed builder for [`Engine`]; obtained from [`Engine::builder`].
#[derive(Debug, Default)]
pub struct EngineBuilder {
    program: Option<Program>,
    preds: PredEnv,
    config: SlingConfig,
    cache: Option<Arc<CheckCache>>,
    cache_path: Option<PathBuf>,
    cache_capacity: Option<usize>,
    parallelism: Option<usize>,
    analysis: Option<AnalysisSettings>,
}

impl EngineBuilder {
    /// Supplies an already-parsed program (type-checked at `build`).
    pub fn program(mut self, program: Program) -> EngineBuilder {
        self.program = Some(program);
        self
    }

    /// Parses MiniC source and supplies it as the program.
    pub fn program_source(self, source: &str) -> Result<EngineBuilder, BuildError> {
        let program = parse_program(source).map_err(|e| BuildError::Parse(e.to_string()))?;
        Ok(self.program(program))
    }

    /// Adds predicate definitions to the engine's environment.
    pub fn predicates<I>(mut self, defs: I) -> Result<EngineBuilder, BuildError>
    where
        I: IntoIterator<Item = PredDef>,
    {
        for def in defs {
            self.preds
                .define(def)
                .map_err(|e| BuildError::Predicate(e.to_string()))?;
        }
        Ok(self)
    }

    /// Parses predicate source and adds every definition.
    pub fn predicates_source(self, source: &str) -> Result<EngineBuilder, BuildError> {
        let defs =
            parse_predicates(source).map_err(|e| BuildError::PredicateParse(e.to_string()))?;
        self.predicates(defs)
    }

    /// Replaces the predicate environment wholesale (e.g. with a
    /// pre-built library).
    pub fn pred_env(mut self, preds: PredEnv) -> EngineBuilder {
        self.preds = preds;
        self
    }

    /// Sets the configuration every request of the engine runs under:
    /// among others the execution tier trace collection runs on
    /// ([`SlingConfig::executor`]) and the static-verification post-pass
    /// ([`SlingConfig::verify`]).
    pub fn config(mut self, config: SlingConfig) -> EngineBuilder {
        self.config = config;
        self
    }

    /// Shares an existing checker cache with this engine, so entailments
    /// memoized by sibling engines (e.g. a corpus run over one predicate
    /// library) carry over. By default each engine gets a private cache.
    pub fn shared_cache(mut self, cache: Arc<CheckCache>) -> EngineBuilder {
        self.cache = Some(cache);
        self
    }

    /// Makes the entailment cache persistent: at `build()` the engine
    /// folds the snapshot at `path` into its cache with
    /// [`Engine::absorb_snapshot`] (if one exists and was written under
    /// the same program types and predicate library), and
    /// [`Engine::save_cache`] writes the cache back to the same path.
    /// After an edit to either, the engine starts cold, and its next
    /// save replaces the file.
    ///
    /// A missing file, a corrupted file, or a snapshot from a different
    /// environment never fails the build — the cache is an optimization,
    /// so the engine simply starts cold. [`Engine::warm_entries`]
    /// reports how many entries were actually restored; callers that
    /// need the typed rejection reason call [`Engine::absorb_snapshot`]
    /// themselves.
    pub fn cache_path(mut self, path: impl Into<PathBuf>) -> EngineBuilder {
        self.cache_path = Some(path.into());
        self
    }

    /// Bounds the entailment cache to roughly `capacity` entries: past
    /// the bound a new entry evicts one entry of its shard, whichever the
    /// shard's map yields first, to make room ([`CacheStats::evictions`]
    /// counts them, and [`CacheStats::resident_bytes`] reports what is
    /// held). Nothing tracks recency, so a hot entry may go. The bound
    /// is enforced per shard, so the retained total can overshoot a
    /// capacity that is not a multiple of the shard count by at most
    /// `SHARD_COUNT - 1` entries.
    ///
    /// Ignored when [`EngineBuilder::shared_cache`] supplies the cache —
    /// the shared cache's own capacity governs.
    pub fn cache_capacity(mut self, capacity: usize) -> EngineBuilder {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Sets the number of worker threads a request's per-location
    /// inference may use (clamped to at least 1; `1` means strictly
    /// sequential). Defaults to the available CPU cores.
    pub fn parallelism(mut self, workers: usize) -> EngineBuilder {
        self.parallelism = Some(workers.max(1));
        self
    }

    /// Enables the static-diagnostics pass (`sling-analysis`) at
    /// `build()`: the program's control flow is analyzed before any
    /// trace runs, deny-level findings (definite use-before-init,
    /// unreachable snapshot locations, definite-null dereferences, ...)
    /// fail the build with [`BuildError::Rejected`], and warnings ride
    /// along in every report's
    /// [`Report::static_warnings`](crate::Report) for the report's
    /// target. The pass also feeds the inference pre-filter: statically
    /// unreachable snapshot locations are attached to reports so an
    /// empty inference site is explained rather than silent. Off by
    /// default.
    pub fn static_analysis(mut self, settings: AnalysisSettings) -> EngineBuilder {
        self.analysis = Some(settings);
        self
    }

    /// Type-checks the program, lints the predicate environment, and
    /// finalizes the engine.
    pub fn build(self) -> Result<Engine, BuildError> {
        let program = self.program.ok_or(BuildError::MissingProgram)?;
        check_program(&program).map_err(|e| BuildError::Type(e.to_string()))?;
        let types = program.type_env();
        // Per-definition checks ran at `define`; the env-level pass
        // additionally rejects unguarded call *cycles* across
        // definitions (mutual recursion that never consumes a cell),
        // which bounded unfolding — both the checker's and the
        // verifier's — could not terminate on. Its findings flow through
        // the shared diagnostics vocabulary (`SL001`).
        if let Err(e) = check_pred_env(&self.preds) {
            let mut diags = Diagnostics::new();
            diags.push(Diagnostic::from_wf_error(&e));
            return Err(BuildError::Rejected(diags));
        }
        // The opt-in lint gate: deny-level findings fail the build with
        // the *full* report (warnings included, for context); with only
        // warnings the analysis is kept on the engine, to be surfaced in
        // every report for its target.
        let analysis = self
            .analysis
            .map(|settings| analyze_program(&program, &settings));
        if let Some(analysis) = &analysis {
            if analysis.diagnostics.has_deny() {
                return Err(BuildError::Rejected(analysis.diagnostics.clone()));
            }
        }
        let profile = EnvProfile::new(&types, &self.preds);
        // Compile to bytecode once per engine, whatever the executor:
        // compilation is a single cheap pass, and the listings stay
        // inspectable (`Engine::compiled`) on either tier.
        let compile_start = std::time::Instant::now();
        let compiled = sling_vm::Compiler::compile(&program);
        let compile_seconds = compile_start.elapsed().as_secs_f64();
        let cache = match (self.cache, self.cache_capacity) {
            (Some(shared), _) => shared,
            (None, Some(capacity)) => Arc::new(CheckCache::with_capacity(capacity)),
            (None, None) => Arc::default(),
        };
        let engine = Engine {
            program,
            compiled,
            compile_seconds,
            types,
            preds: self.preds,
            config: self.config,
            cache,
            cache_path: self.cache_path,
            warm_entries: AtomicU64::new(0),
            profile,
            footprints: OnceLock::new(),
            parallelism: self.parallelism.unwrap_or_else(default_parallelism),
            analysis,
        };
        // The snapshot is an optimization: a missing, corrupt or foreign
        // file leaves the engine cold and never fails the build.
        if let Some(path) = &engine.cache_path {
            let _ = engine.absorb_snapshot(path);
        }
        Ok(engine)
    }
}

/// The default worker count: the available CPU cores (1 when they
/// cannot be queried).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A reusable SLING analysis session over one program and predicate
/// environment.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug)]
pub struct Engine {
    program: Program,
    /// The program's bytecode form, compiled once at build so every
    /// request (and every CEGIR re-collection round) reuses the same
    /// chunks.
    compiled: sling_vm::CompiledProgram,
    /// How long that compilation took, stamped into every report's
    /// [`RunMetrics::compile_seconds`](crate::RunMetrics).
    compile_seconds: f64,
    types: TypeEnv,
    preds: PredEnv,
    config: SlingConfig,
    cache: Arc<CheckCache>,
    /// Where [`Engine::save_cache`] persists the cache (and where the
    /// build warm-started from), if configured.
    cache_path: Option<PathBuf>,
    /// Entries folded in by [`Engine::absorb_snapshot`], the build's
    /// `cache_path` load included (atomic: a live engine absorbs
    /// through `&self`).
    warm_entries: AtomicU64,
    /// The environment tag, computed once at build so per-request
    /// checker contexts and snapshots don't re-hash the environments.
    profile: EnvProfile,
    /// The predicates' footprint summaries, computed on the first
    /// request rather than at build: many engines are built that serve
    /// few requests.
    footprints: OnceLock<Footprints>,
    parallelism: usize,
    /// The static-diagnostics result computed at build time, when the
    /// builder opted in via [`EngineBuilder::static_analysis`]. By
    /// construction it carries no deny-level findings — those fail
    /// `build()` — only warnings and the unreachable-location map.
    analysis: Option<ProgramAnalysis>,
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The engine's program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The type environment derived from the program.
    pub fn types(&self) -> &TypeEnv {
        &self.types
    }

    /// The predicate environment shared by every request.
    pub fn preds(&self) -> &PredEnv {
        &self.preds
    }

    /// The configuration every request runs under.
    pub fn config(&self) -> &SlingConfig {
        &self.config
    }

    /// The number of worker threads a request's per-location inference
    /// may use.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The static-diagnostics result computed at build time, when the
    /// engine was built with [`EngineBuilder::static_analysis`]. Never
    /// contains deny-level findings (those fail the build).
    pub fn diagnostics(&self) -> Option<&ProgramAnalysis> {
        self.analysis.as_ref()
    }

    /// The program's compiled bytecode form (one chunk per function),
    /// produced once at build time. Useful for inspecting listings via
    /// [`sling_vm::CompiledProgram::disassemble`].
    pub fn compiled(&self) -> &sling_vm::CompiledProgram {
        &self.compiled
    }

    /// Cumulative checker-cache counters for this engine's cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Entries restored from the [`EngineBuilder::cache_path`] snapshot
    /// when this engine was built, plus entries folded in later by
    /// [`Engine::absorb_snapshot`] (`0` for a cold start).
    pub fn warm_entries(&self) -> u64 {
        self.warm_entries.load(Ordering::Relaxed)
    }

    /// The persistent-cache snapshot path configured via
    /// [`EngineBuilder::cache_path`], if any. Long-lived services use
    /// this to decide whether periodic [`Engine::save_cache`] calls can
    /// succeed at all.
    pub fn cache_path(&self) -> Option<&std::path::Path> {
        self.cache_path.as_deref()
    }

    /// Snapshots the entailment cache to the configured
    /// [`EngineBuilder::cache_path`], so the next process over the same
    /// program and predicate library starts warm. Returns the number of
    /// entries written. Fails with [`std::io::ErrorKind::InvalidInput`]
    /// when no cache path was configured.
    pub fn save_cache(&self) -> std::io::Result<u64> {
        let Some(path) = &self.cache_path else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "no cache path configured: call EngineBuilder::cache_path(..)",
            ));
        };
        persist::save(&self.cache, &self.profile, path)
    }

    /// [`Engine::save_cache`] to an explicit path (the configured
    /// [`EngineBuilder::cache_path`], if any, is ignored).
    pub fn save_cache_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<u64> {
        persist::save(&self.cache, &self.profile, path.as_ref())
    }

    /// Folds a snapshot into this engine's *live* cache
    /// ([`sling_checker::persist::load`]): the snapshot must have been
    /// saved under this engine's program types and predicate library
    /// (any other is [`PersistError::FingerprintMismatch`]), a key the
    /// cache already holds keeps its entry, and capacity is respected
    /// without evicting live entries. Merged entries are warm — hits on
    /// them count in [`CacheStats::warm_hits`] — and
    /// [`Engine::warm_entries`] grows by the merged count, so it counts
    /// each restored entry once.
    ///
    /// `build()` runs this on the [`EngineBuilder::cache_path`]
    /// snapshot; long-lived services also run it at boot to fold every
    /// snapshot in a cache directory; see `sling-serve`'s directory
    /// mode.
    pub fn absorb_snapshot(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<persist::MergeStats, PersistError> {
        let stats = persist::load(&self.cache, &self.profile, path.as_ref())?;
        self.warm_entries.fetch_add(stats.merged, Ordering::Relaxed);
        Ok(stats)
    }

    /// The checker context every request of this engine runs under.
    fn check_ctx(&self) -> CheckCtx<'_> {
        CheckCtx {
            types: &self.types,
            preds: &self.preds,
            config: self.config.check,
            cache: Some(&self.cache),
            env_tag: self.profile.env_tag(),
        }
    }

    /// The predicates' footprint summaries, which inference reads before
    /// it asks the checker about a candidate.
    fn footprints(&self) -> &Footprints {
        self.footprints
            .get_or_init(|| Footprints::new(&self.types, &self.preds))
    }

    /// Checks that a request fits the program: its target is a function,
    /// every input spec gives one argument per parameter, no input value
    /// builds more than [`MAX_INPUT_CELLS`] cells, every random integer
    /// range is non-empty, every cell of an exact input shape and
    /// every list or tree layout has a declared structure type with the
    /// declared number of fields, and every layout role indexes one of
    /// those fields (input building and trace collection index fields by
    /// the declaration), a field of its own, and the shape has the roles
    /// it builds with.
    fn validate(&self, request: &AnalysisRequest) -> Result<(), AnalyzeError> {
        let Some(func) = self.program.func(request.target) else {
            return Err(AnalyzeError::UnknownTarget(request.target));
        };
        let specs = request.inputs.iter().filter_map(|input| match input {
            InputSource::Spec(spec) => Some(spec.arg_specs()),
            InputSource::Custom(_) => None,
        });
        if let Some(args) = specs.clone().find(|args| args.len() != func.params.len()) {
            return Err(AnalyzeError::BadArity {
                target: request.target,
                params: func.params.len(),
                args: args.len(),
            });
        }
        for spec in specs.flatten() {
            let cells = match spec {
                ValueSpec::List { len, .. } => *len,
                ValueSpec::Tree { size, .. } => *size,
                ValueSpec::Exact { cells } => cells.len(),
                ValueSpec::Nil | ValueSpec::Int(_) | ValueSpec::IntIn(..) => 0,
            };
            if cells > MAX_INPUT_CELLS {
                return Err(AnalyzeError::InputTooLarge { cells });
            }
            match spec {
                ValueSpec::Exact { cells } => {
                    for cell in cells {
                        let declared = self.types.get(cell.ty).map(|def| def.fields.len());
                        if declared != Some(cell.fields.len()) {
                            return Err(AnalyzeError::BadExactCell {
                                ty: cell.ty,
                                fields: cell.fields.len(),
                                declared,
                            });
                        }
                    }
                }
                ValueSpec::List { layout: l, .. } => self.check_layout(
                    l.ty,
                    l.nfields,
                    &[("next", Some(l.next)), ("prev", l.prev), ("data", l.data)],
                    None,
                )?,
                ValueSpec::Tree {
                    layout: l, kind, ..
                } => self.check_layout(
                    l.ty,
                    l.nfields,
                    &[
                        ("left", Some(l.left)),
                        ("right", Some(l.right)),
                        ("parent", l.parent),
                        ("data", l.data),
                        ("color", l.color),
                    ],
                    match kind {
                        TreeKind::Bst => Some("data"),
                        TreeKind::RedBlack => Some("color"),
                        TreeKind::Random | TreeKind::Balanced => None,
                    },
                )?,
                &ValueSpec::IntIn(lo, hi) if lo > hi => {
                    return Err(AnalyzeError::EmptyIntRange { lo, hi })
                }
                ValueSpec::Nil | ValueSpec::Int(_) | ValueSpec::IntIn(..) => {}
            }
        }
        Ok(())
    }

    /// The layout half of [`Engine::validate`]: `ty` is declared with
    /// `nfields` fields, every present role index is below `nfields`, no
    /// two roles share an index, and the role the shape `needs` is
    /// present.
    fn check_layout(
        &self,
        ty: Symbol,
        nfields: usize,
        roles: &[(&'static str, Option<usize>)],
        needs: Option<&'static str>,
    ) -> Result<(), AnalyzeError> {
        let declared = self.types.get(ty).map(|def| def.fields.len());
        let role = roles
            .iter()
            .find_map(|&(name, index)| index.filter(|&i| i >= nfields).map(|i| (name, i)));
        if declared != Some(nfields) || role.is_some() {
            return Err(AnalyzeError::BadLayout {
                ty,
                nfields,
                declared,
                role,
            });
        }
        if let Some(role) = needs.filter(|need| roles.contains(&(*need, None))) {
            return Err(AnalyzeError::BadLayoutRole {
                ty,
                role,
                shares: None,
            });
        }
        for (at, &(role, index)) in roles.iter().enumerate() {
            let Some(index) = index else { continue };
            if let Some(&(other, _)) = roles[..at].iter().find(|(_, i)| *i == Some(index)) {
                return Err(AnalyzeError::BadLayoutRole {
                    ty,
                    role,
                    shares: Some((other, index)),
                });
            }
        }
        Ok(())
    }

    /// Runs one validated request, its locations fanned out over the
    /// whole worker budget, and stamps its report with the cache delta
    /// since `mark`, which then moves to the end of the request. A batch
    /// chains one mark through its requests, so its per-report deltas
    /// add up to its batch delta.
    fn run_request(&self, request: &AnalysisRequest, mark: &mut CacheStats) -> Report {
        let mut report = run_target(
            &self.check_ctx(),
            self.footprints(),
            &self.program,
            &self.compiled,
            request.target,
            &request.inputs,
            &self.config,
            self.parallelism,
        );
        report.metrics.compile_seconds = self.compile_seconds;
        if let Some(analysis) = &self.analysis {
            // Surface the build-time static findings scoped to this
            // report's target: warnings ride along, and statically
            // unreachable snapshot locations explain empty inference
            // sites (`Report::missing_locations`).
            report.static_warnings = analysis
                .diagnostics
                .warnings()
                .filter(|d| d.function == Some(request.target))
                .cloned()
                .collect();
            report.metrics.static_warnings = report.static_warnings.len();
            report.unreachable_locations = analysis.unreachable_in(request.target).to_vec();
        }
        let now = self.cache.stats();
        report.cache = now.since(mark);
        *mark = now;
        report
    }

    /// Serves one request: collect traces for the target on the
    /// request's inputs, infer invariants at every reached location,
    /// validate entry/exit pairs with the frame rule.
    ///
    /// With [`Engine::parallelism`] `> 1` the per-location inference
    /// loop fans out over a scoped thread pool, so a single-target
    /// workload with many locations uses every worker; output is
    /// identical to a sequential run, and
    /// [`RunMetrics::workers`](crate::RunMetrics) reports the worker
    /// count actually used.
    pub fn analyze(&self, request: &AnalysisRequest) -> Result<Report, AnalyzeError> {
        self.validate(request)?;
        Ok(self.run_request(request, &mut self.cache.stats()))
    }

    /// Serves a batch of requests against the shared predicate
    /// environment and checker cache. Targets are validated up front, so
    /// either every request runs or none does; then the requests run in
    /// order, each as [`Engine::analyze`] runs it, with its locations
    /// over the whole worker budget.
    ///
    /// Reports come back in request order and are formula-for-formula
    /// identical to a sequential run regardless of the worker count
    /// (inference is deterministic per request, and cache hits return
    /// the same reductions a cold search would). Each report carries
    /// its own cache delta, and the deltas add up to the batch's
    /// [`BatchReport::cache`].
    pub fn analyze_all<'r, I>(&self, requests: I) -> Result<BatchReport, AnalyzeError>
    where
        I: IntoIterator<Item = &'r AnalysisRequest>,
    {
        self.analyze_all_with(requests, |_, _| {})
    }

    /// [`Engine::analyze_all`] with a streaming observer: `sink`
    /// receives each report, with its index in `requests`, as soon as
    /// the report is done, on the calling thread and in request order,
    /// so long batches can surface results before the last request
    /// finishes.
    pub fn analyze_all_with<'r, I>(
        &self,
        requests: I,
        mut sink: impl FnMut(usize, &Report),
    ) -> Result<BatchReport, AnalyzeError>
    where
        I: IntoIterator<Item = &'r AnalysisRequest>,
    {
        let requests: Vec<&AnalysisRequest> = requests.into_iter().collect();
        for request in &requests {
            self.validate(request)?;
        }
        let before = self.cache.stats();
        let mut mark = before;
        let mut reports = Vec::with_capacity(requests.len());
        for (index, request) in requests.into_iter().enumerate() {
            let report = self.run_request(request, &mut mark);
            sink(index, &report);
            reports.push(report);
        }
        Ok(BatchReport {
            reports,
            cache: mark.since(&before),
        })
    }

    /// Location-level entry point: infers invariants for `target` from
    /// externally collected snapshots, sharing the engine's predicate
    /// environment and cache. This is what benchmarking and replay
    /// tooling use to drive inference without the tracer.
    pub fn infer_at(
        &self,
        target: Symbol,
        location: Location,
        snaps: &[&Snapshot],
    ) -> Result<LocationAnalysis, AnalyzeError> {
        let Some(func) = self.program.func(target) else {
            return Err(AnalyzeError::UnknownTarget(target));
        };
        let param_order: Vec<Symbol> = func.params.iter().map(|p| p.name).collect();
        Ok(infer_location(
            &self.check_ctx(),
            self.footprints(),
            location,
            snaps,
            &param_order,
            &self.config,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::collect::Executor;
    use crate::spec::{ExactCell, ExactVal, InputSpec};
    use sling_lang::{ListLayout, TreeKind, TreeLayout};

    const SRC: &str = "
        struct TNode { next: TNode*; data: int; }
        fn id(x: TNode*) -> TNode* { return x; }";

    const PREDS: &str = "
        pred tlist(x: TNode*) := emp & x == nil
           | exists u, d. x -> TNode{next: u, data: d} * tlist(u);";

    #[test]
    fn builder_requires_a_program() {
        let err = Engine::builder().build().unwrap_err();
        assert_eq!(err, BuildError::MissingProgram);
    }

    #[test]
    fn builder_surfaces_parse_errors() {
        let err = Engine::builder().program_source("fn {").unwrap_err();
        assert!(matches!(err, BuildError::Parse(_)), "{err}");
    }

    #[test]
    fn builder_surfaces_type_errors() {
        let err = Engine::builder()
            .program_source("fn f(x: Missing*) { return; }")
            .unwrap()
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::Type(_)), "{err}");
    }

    #[test]
    fn build_rejects_unguarded_predicate_cycles() {
        // Each definition passes the per-def check (neither calls
        // itself), so only the env-level cycle pass at build catches
        // the divergence.
        let err = Engine::builder()
            .program_source(SRC)
            .unwrap()
            .predicates_source(
                "pred eping(x: TNode*) := epong(x);
                 pred epong(x: TNode*) := eping(x);",
            )
            .unwrap()
            .build()
            .unwrap_err();
        let BuildError::Rejected(ref diags) = err else {
            panic!("expected Rejected, got {err}");
        };
        assert_eq!(diags.len(), 1);
        let diag = &diags.items[0];
        assert_eq!(diag.code, sling_analysis::codes::UNPRODUCTIVE_PRED);
        assert!(diag.message.contains("not productive"), "{diag}");
        assert!(
            diag.notes.iter().any(|n| n.contains("->")),
            "cycle path note expected, got {diag}"
        );
        // The rendered error keeps the historical substring.
        assert!(err.to_string().contains("not productive"), "{err}");
    }

    #[test]
    fn static_analysis_gate_rejects_deny_findings_at_build() {
        // One fixture per deny lint: definite use-before-init,
        // unreachable snapshot location, definite-null dereference.
        let fixtures = [
            (
                "fn f() -> int { var y: int; return y; }",
                sling_analysis::codes::USE_BEFORE_INIT,
            ),
            (
                "fn f() -> int { return 1; @dead; }",
                sling_analysis::codes::UNREACHABLE_LOCATION,
            ),
            (
                "struct N { next: N*; }
                 fn f() -> N* { var x: N* = null; return x->next; }",
                sling_analysis::codes::NULL_DEREF,
            ),
        ];
        for (src, code) in fixtures {
            let err = Engine::builder()
                .program_source(src)
                .unwrap()
                .static_analysis(AnalysisSettings::default())
                .build()
                .unwrap_err();
            let BuildError::Rejected(ref diags) = err else {
                panic!("expected Rejected for {code}, got {err}");
            };
            assert!(
                diags.denies().any(|d| d.code == code),
                "expected {code} in {diags}"
            );
            // Without the opt-in the same program builds fine: the gate
            // never changes default behavior.
            assert!(Engine::builder()
                .program_source(src)
                .unwrap()
                .build()
                .is_ok());
        }
    }

    #[test]
    fn static_warnings_and_unreachable_sites_ride_in_reports() {
        // A warning-only program: `t`'s initializer is a dead store
        // (overwritten with no snapshot in between), which warns but
        // does not fail the build.
        let engine = Engine::builder()
            .program_source(
                "struct TNode { next: TNode*; data: int; }
                 fn touch(x: TNode*) -> TNode* {
                     var t: int = 0;
                     t = 1;
                     return x;
                 }",
            )
            .unwrap()
            .static_analysis(AnalysisSettings::default())
            .build()
            .unwrap();
        let analysis = engine.diagnostics().expect("analysis was computed");
        assert!(!analysis.diagnostics.is_empty());
        assert!(!analysis.diagnostics.has_deny());
        let report = engine
            .analyze(
                &AnalysisRequest::new("touch").input(crate::InputSpec::seeded(1).arg(
                    crate::ValueSpec::sll(
                        sling_lang::ListLayout {
                            ty: Symbol::intern("TNode"),
                            nfields: 2,
                            next: 0,
                            prev: None,
                            data: Some(1),
                        },
                        2,
                    ),
                )),
            )
            .unwrap();
        assert!(!report.static_warnings.is_empty());
        assert_eq!(report.metrics.static_warnings, report.static_warnings.len());
        assert!(report
            .static_warnings
            .iter()
            .all(|d| d.function == Some(Symbol::intern("touch"))));
        assert!(report.unreachable_locations.is_empty());
    }

    #[test]
    fn partially_stale_snapshot_is_resaved_clean_at_build() {
        use sling_logic::parse_formula;
        use sling_models::{Heap, HeapCell, Loc, Stack, StackHeapModel, Val};

        let src = "struct PSNode { next: PSNode*; }
                   fn psid(x: PSNode*) -> PSNode* { return x; }";
        let preds = |base: &str| {
            format!(
                "pred pslist(x: PSNode*) := {base}
                   | exists u. x -> PSNode{{next: u}} * pslist(u);
                 pred pscell(x: PSNode*) := exists u. x -> PSNode{{next: u}};"
            )
        };
        let list_model = |n: u64, lo: u64| {
            let mut heap = Heap::new();
            for i in 0..n {
                let next = if i + 1 < n {
                    Val::Addr(Loc::new(lo + i + 1))
                } else {
                    Val::Nil
                };
                heap.insert(
                    Loc::new(lo + i),
                    HeapCell::new(Symbol::intern("PSNode"), vec![next]),
                );
            }
            let mut stack = Stack::new();
            stack.bind(Symbol::intern("x"), Val::Addr(Loc::new(lo)));
            StackHeapModel::new(stack, heap)
        };
        let path =
            std::env::temp_dir().join(format!("sling-engine-partial-{}.bin", std::process::id()));
        std::fs::remove_file(&path).ok();

        // v1: seed the cache with one entry per predicate, snapshot it.
        let cache = Arc::new(CheckCache::new());
        let v1 = Engine::builder()
            .program_source(src)
            .unwrap()
            .predicates_source(&preds("emp & x == nil"))
            .unwrap()
            .shared_cache(Arc::clone(&cache))
            .cache_path(&path)
            .build()
            .unwrap();
        let ctx = CheckCtx::with_cache(v1.types(), v1.preds(), Default::default(), &cache);
        assert!(ctx
            .check(&list_model(2, 1), &parse_formula("pslist(x)").unwrap())
            .is_some());
        assert!(ctx
            .check(&list_model(1, 9), &parse_formula("pscell(x)").unwrap())
            .is_some());
        assert_eq!(v1.save_cache().unwrap(), 2);

        // v2: pslist's base case changed, pscell untouched. The snapshot
        // answers only v1's library, so the build starts cold, without
        // the pscell entry either, and leaves the file as it was.
        let v2_engine = |cache: Option<&Arc<CheckCache>>| {
            let mut builder = Engine::builder()
                .program_source(src)
                .unwrap()
                .predicates_source(&preds("emp & x == x"))
                .unwrap()
                .cache_path(&path);
            if let Some(cache) = cache {
                builder = builder.shared_cache(Arc::clone(cache));
            }
            builder.build().unwrap()
        };
        let v2_cache = Arc::new(CheckCache::new());
        let v2 = v2_engine(Some(&v2_cache));
        assert_eq!(v2.warm_entries(), 0, "an edited library starts cold");
        assert_eq!(v2.cache_stats().entries, 0);
        let profile = EnvProfile::new(v2.types(), v2.preds());
        assert!(matches!(
            persist::load(&CheckCache::new(), &profile, &path),
            Err(PersistError::FingerprintMismatch { .. })
        ));

        // v2's own save replaces the file, so the next boot is warm.
        let ctx = CheckCtx::with_cache(v2.types(), v2.preds(), Default::default(), &v2_cache);
        assert!(ctx
            .check(&list_model(1, 9), &parse_formula("pscell(x)").unwrap())
            .is_some());
        assert_eq!(v2.save_cache().unwrap(), 1);
        assert_eq!(v2_engine(None).warm_entries(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn builder_surfaces_duplicate_predicates() {
        let err = Engine::builder()
            .predicates_source(PREDS)
            .unwrap()
            .predicates_source(PREDS)
            .unwrap_err();
        assert!(matches!(err, BuildError::Predicate(_)), "{err}");
    }

    #[test]
    fn unknown_target_is_an_error_not_a_panic() {
        let engine = Engine::builder()
            .program_source(SRC)
            .unwrap()
            .predicates_source(PREDS)
            .unwrap()
            .build()
            .unwrap();
        let request = AnalysisRequest::new("missing");
        let err = engine.analyze(&request).unwrap_err();
        assert_eq!(err, AnalyzeError::UnknownTarget(Symbol::intern("missing")));
        assert!(engine.analyze_all([&request]).is_err());
    }

    #[test]
    fn exact_cells_must_fit_their_declaration() {
        // A cell with fewer fields than its structure declares used to
        // panic trace collection at the first read of a missing field.
        let engine = Engine::builder()
            .program_source(
                "struct SNode { next: SNode*; data: int; }
                 fn data_of(x: SNode*) -> int { return x->data; }",
            )
            .unwrap()
            .build()
            .unwrap();
        let snode = Symbol::intern("SNode");
        let request = |cell: ExactCell| {
            AnalysisRequest::new("data_of")
                .input(InputSpec::new().arg(ValueSpec::exact(vec![cell])))
        };
        let short = request(ExactCell {
            ty: snode,
            fields: vec![ExactVal::Nil],
        });
        let expected = AnalyzeError::BadExactCell {
            ty: snode,
            fields: 1,
            declared: Some(2),
        };
        assert_eq!(engine.analyze(&short).unwrap_err(), expected);
        assert_eq!(engine.analyze_all([&short]).unwrap_err(), expected);
        assert!(expected.to_string().contains("declares 2"), "{expected}");

        let alien = request(ExactCell {
            ty: Symbol::intern("NoSuchNode"),
            fields: Vec::new(),
        });
        assert!(matches!(
            engine.analyze(&alien),
            Err(AnalyzeError::BadExactCell { declared: None, .. })
        ));

        let good = request(ExactCell {
            ty: snode,
            fields: vec![ExactVal::Nil, ExactVal::Int(4)],
        });
        assert_eq!(engine.analyze(&good).unwrap().metrics.faulted_runs, 0);
    }

    #[test]
    fn list_and_tree_layouts_must_fit_their_declaration() {
        // Each bad layout used to panic input building or trace
        // collection (an index out of bounds on a field vector), or to
        // feed inference cells its structure does not declare.
        let engine = Engine::builder()
            .program_source(
                "struct LNode { next: LNode*; data: int; }
                 struct BNode { left: BNode*; right: BNode*; key: int; }
                 fn list_sum(x: LNode*) -> int {
                     var s: int = 0;
                     while @w (x != null) { s = s + x->data; x = x->next; }
                     return s;
                 }
                 fn leftmost_key(t: BNode*) -> int {
                     while @w (t->left != null) { t = t->left; }
                     return t->key;
                 }",
            )
            .unwrap()
            .build()
            .unwrap();
        let (lnode, bnode) = (Symbol::intern("LNode"), Symbol::intern("BNode"));
        let list = ListLayout {
            ty: lnode,
            nfields: 2,
            next: 0,
            prev: None,
            data: Some(1),
        };
        let tree = TreeLayout {
            ty: bnode,
            nfields: 3,
            left: 0,
            right: 1,
            parent: None,
            data: Some(2),
            color: None,
        };
        let analyze = |target: &str, spec: ValueSpec| {
            engine.analyze(&AnalysisRequest::new(target).input(InputSpec::seeded(3).arg(spec)))
        };
        let bad = |ty, nfields, declared, role| AnalyzeError::BadLayout {
            ty,
            nfields,
            declared,
            role,
        };
        let cases = [
            (
                "list_sum",
                ValueSpec::sll(ListLayout { next: 5, ..list }, 4),
                bad(lnode, 2, Some(2), Some(("next", 5))),
            ),
            (
                "list_sum",
                ValueSpec::sll(
                    ListLayout {
                        nfields: 1,
                        data: None,
                        ..list
                    },
                    4,
                ),
                bad(lnode, 1, Some(2), None),
            ),
            (
                "list_sum",
                ValueSpec::dll(
                    ListLayout {
                        prev: Some(1),
                        data: Some(2),
                        ..list
                    },
                    4,
                ),
                bad(lnode, 2, Some(2), Some(("data", 2))),
            ),
            (
                "list_sum",
                ValueSpec::sll(
                    ListLayout {
                        ty: Symbol::intern("NoSuchNode"),
                        ..list
                    },
                    4,
                ),
                bad(Symbol::intern("NoSuchNode"), 2, None, None),
            ),
            (
                "leftmost_key",
                ValueSpec::tree(TreeLayout { right: 7, ..tree }, 5, TreeKind::Random),
                bad(bnode, 3, Some(3), Some(("right", 7))),
            ),
            (
                "leftmost_key",
                ValueSpec::tree(
                    TreeLayout {
                        nfields: 2,
                        data: None,
                        ..tree
                    },
                    5,
                    TreeKind::Random,
                ),
                bad(bnode, 2, Some(3), None),
            ),
        ];
        for (target, spec, expected) in cases {
            assert_eq!(analyze(target, spec).unwrap_err(), expected);
        }
        let message = bad(lnode, 2, Some(2), Some(("next", 5))).to_string();
        assert!(message.contains("`next` field 5"), "{message}");

        // The layouts they were bent from fit.
        let report = analyze("list_sum", ValueSpec::sll(list, 4)).unwrap();
        assert_eq!(report.metrics.faulted_runs, 0);
        let report = analyze("leftmost_key", ValueSpec::tree(tree, 5, TreeKind::Bst)).unwrap();
        assert_eq!(report.metrics.faulted_runs, 0);
    }

    /// An engine over one tree node with a field for every tree role
    /// but `parent`, and the layout that gives each role its own field.
    fn shape_engine() -> (Engine, TreeLayout) {
        let engine = Engine::builder()
            .program_source(
                "struct RNode { left: RNode*; right: RNode*; key: int; color: int; }
                 struct DNode { next: DNode*; prev: DNode*; }
                 fn min_key(t: RNode*) -> int {
                     while @w (t->left != null) { t = t->left; }
                     return t->key;
                 }
                 fn first(x: DNode*) -> DNode* { return x; }",
            )
            .unwrap()
            .build()
            .unwrap();
        let layout = TreeLayout {
            ty: Symbol::intern("RNode"),
            nfields: 4,
            left: 0,
            right: 1,
            parent: None,
            data: Some(2),
            color: Some(3),
        };
        (engine, layout)
    }

    fn analyze_tree(
        engine: &Engine,
        layout: TreeLayout,
        kind: TreeKind,
    ) -> Result<Report, AnalyzeError> {
        let input = InputSpec::seeded(5).arg(ValueSpec::tree(layout, 6, kind));
        engine.analyze(&AnalysisRequest::new("min_key").input(input))
    }

    #[test]
    fn bst_layouts_need_a_data_field() {
        // A BST orders its nodes by key.
        let (engine, layout) = shape_engine();
        let keyless = TreeLayout {
            data: None,
            ..layout
        };
        let err = analyze_tree(&engine, keyless, TreeKind::Bst).unwrap_err();
        let expected = AnalyzeError::BadLayoutRole {
            ty: layout.ty,
            role: "data",
            shares: None,
        };
        assert_eq!(err, expected);
        assert!(err.to_string().contains("needs a `data` field"), "{err}");
        // A random tree needs no key, and the keyed layout builds a BST.
        assert!(analyze_tree(&engine, keyless, TreeKind::Random).is_ok());
        assert!(analyze_tree(&engine, layout, TreeKind::Bst).is_ok());
    }

    #[test]
    fn red_black_layouts_need_a_color_field() {
        // Painting a red-black tree writes its color field.
        let (engine, layout) = shape_engine();
        let colorless = TreeLayout {
            color: None,
            ..layout
        };
        assert_eq!(
            analyze_tree(&engine, colorless, TreeKind::RedBlack).unwrap_err(),
            AnalyzeError::BadLayoutRole {
                ty: layout.ty,
                role: "color",
                shares: None,
            }
        );
        assert!(analyze_tree(&engine, colorless, TreeKind::Balanced).is_ok());
        assert!(analyze_tree(&engine, layout, TreeKind::RedBlack).is_ok());
    }

    #[test]
    fn layout_roles_need_fields_of_their_own() {
        // A BST keyed on its left pointer overwrites a key with a child,
        // then reads that child back as a key.
        let (engine, layout) = shape_engine();
        let on_left = TreeLayout {
            data: Some(0),
            ..layout
        };
        let err = analyze_tree(&engine, on_left, TreeKind::Bst).unwrap_err();
        assert_eq!(
            err,
            AnalyzeError::BadLayoutRole {
                ty: layout.ty,
                role: "data",
                shares: Some(("left", 0)),
            }
        );
        assert!(
            err.to_string()
                .contains("`data` and `left` roles share field 0"),
            "{err}"
        );

        // A list whose `prev` is its `next` would link each node to
        // itself backwards.
        let dnode = Symbol::intern("DNode");
        let folded = ListLayout {
            ty: dnode,
            nfields: 2,
            next: 0,
            prev: Some(0),
            data: None,
        };
        let input = InputSpec::seeded(5).arg(ValueSpec::dll(folded, 3));
        assert_eq!(
            engine
                .analyze(&AnalysisRequest::new("first").input(input))
                .unwrap_err(),
            AnalyzeError::BadLayoutRole {
                ty: dnode,
                role: "prev",
                shares: Some(("next", 0)),
            }
        );
    }

    #[test]
    fn input_specs_need_one_argument_per_parameter() {
        // Calling the target with the wrong argument count used to fail
        // the interpreter's arity assertion.
        let engine = Engine::builder()
            .program_source(SRC)
            .unwrap()
            .build()
            .unwrap();
        let layout = ListLayout {
            ty: Symbol::intern("TNode"),
            nfields: 2,
            next: 0,
            prev: None,
            data: Some(1),
        };
        let request = |spec: InputSpec| AnalysisRequest::new("id").input(spec);
        let two = request(
            InputSpec::seeded(1)
                .arg(ValueSpec::sll(layout, 2))
                .arg(ValueSpec::nil()),
        );
        let expected = AnalyzeError::BadArity {
            target: Symbol::intern("id"),
            params: 1,
            args: 2,
        };
        assert_eq!(engine.analyze(&two).unwrap_err(), expected);
        assert_eq!(engine.analyze_all([&two]).unwrap_err(), expected);
        assert!(
            expected
                .to_string()
                .contains("takes 1 argument(s), but an input spec gives 2"),
            "{expected}"
        );
        assert_eq!(
            engine.analyze(&request(InputSpec::seeded(1))).unwrap_err(),
            AnalyzeError::BadArity {
                target: Symbol::intern("id"),
                params: 1,
                args: 0,
            }
        );
        let one = request(InputSpec::seeded(1).arg(ValueSpec::sll(layout, 2)));
        assert!(engine.analyze(&one).is_ok());
    }

    #[test]
    fn random_integer_ranges_must_not_be_empty() {
        // Drawing from an empty range used to panic input building.
        let engine = Engine::builder()
            .program_source(
                "struct KNode { next: KNode*; }
                 fn keep(x: KNode*, k: int) -> KNode* { return x; }",
            )
            .unwrap()
            .build()
            .unwrap();
        let request = |lo, hi| {
            AnalysisRequest::new("keep").input(
                InputSpec::seeded(1)
                    .arg(ValueSpec::nil())
                    .arg(ValueSpec::int_in(lo, hi)),
            )
        };
        let err = engine.analyze(&request(5, 4)).unwrap_err();
        assert_eq!(err, AnalyzeError::EmptyIntRange { lo: 5, hi: 4 });
        assert_eq!(engine.analyze_all([&request(5, 4)]).unwrap_err(), err);
        assert!(err.to_string().contains("[5, 4]"), "{err}");
        // A one-value range is not empty.
        assert!(engine.analyze(&request(4, 4)).is_ok());
    }

    /// `engine` validating `target` on one argument built from `value`.
    fn validate_one(engine: &Engine, target: &str, value: ValueSpec) -> Result<(), AnalyzeError> {
        engine.validate(&AnalysisRequest::new(target).input(InputSpec::seeded(1).arg(value)))
    }

    #[test]
    fn list_inputs_have_at_most_the_cell_cap() {
        // A huge `len` used to overflow the list's allocation and panic
        // input building; a large one pinned a worker for minutes.
        let engine = Engine::builder()
            .program_source(SRC)
            .unwrap()
            .build()
            .unwrap();
        let layout = ListLayout {
            ty: Symbol::intern("TNode"),
            nfields: 2,
            next: 0,
            prev: None,
            data: Some(1),
        };
        for len in [MAX_INPUT_CELLS + 1, 1 << 62] {
            let err = validate_one(&engine, "id", ValueSpec::sll(layout, len)).unwrap_err();
            assert_eq!(err, AnalyzeError::InputTooLarge { cells: len });
        }
        let request = AnalysisRequest::new("id")
            .input(InputSpec::seeded(1).arg(ValueSpec::cyclic(layout, 1 << 62)));
        let err = engine.analyze(&request).unwrap_err();
        assert_eq!(err, AnalyzeError::InputTooLarge { cells: 1 << 62 });
        assert_eq!(engine.analyze_all([&request]).unwrap_err(), err);
        assert!(err.to_string().contains("at most 256 cells"), "{err}");
        assert!(validate_one(&engine, "id", ValueSpec::sll(layout, MAX_INPUT_CELLS)).is_ok());
    }

    #[test]
    fn tree_inputs_have_at_most_the_cell_cap() {
        let engine = Engine::builder()
            .program_source(
                "struct CapTree { left: CapTree*; right: CapTree*; key: int; }
                 fn root(t: CapTree*) -> CapTree* { return t; }",
            )
            .unwrap()
            .build()
            .unwrap();
        let layout = TreeLayout {
            ty: Symbol::intern("CapTree"),
            nfields: 3,
            left: 0,
            right: 1,
            parent: None,
            data: Some(2),
            color: None,
        };
        let tree = |size| ValueSpec::tree(layout, size, TreeKind::Bst);
        assert_eq!(
            validate_one(&engine, "root", tree(MAX_INPUT_CELLS + 1)),
            Err(AnalyzeError::InputTooLarge {
                cells: MAX_INPUT_CELLS + 1
            })
        );
        assert!(validate_one(&engine, "root", tree(MAX_INPUT_CELLS)).is_ok());
    }

    #[test]
    fn exact_inputs_have_at_most_the_cell_cap() {
        let engine = Engine::builder()
            .program_source(SRC)
            .unwrap()
            .build()
            .unwrap();
        // A chain of `n` cells, each pointing at the next.
        let chain = |n: usize| ValueSpec::Exact {
            cells: (0..n)
                .map(|i| ExactCell {
                    ty: Symbol::intern("TNode"),
                    fields: vec![
                        if i + 1 < n {
                            ExactVal::Cell(i + 1)
                        } else {
                            ExactVal::Nil
                        },
                        ExactVal::Int(i as i64),
                    ],
                })
                .collect(),
        };
        assert_eq!(
            validate_one(&engine, "id", chain(MAX_INPUT_CELLS + 1)),
            Err(AnalyzeError::InputTooLarge {
                cells: MAX_INPUT_CELLS + 1
            })
        );
        assert!(validate_one(&engine, "id", chain(MAX_INPUT_CELLS)).is_ok());
    }

    #[test]
    fn engines_can_share_a_cache() {
        let shared = Arc::new(CheckCache::new());
        let mk = || {
            Engine::builder()
                .program_source(SRC)
                .unwrap()
                .predicates_source(PREDS)
                .unwrap()
                .shared_cache(Arc::clone(&shared))
                .build()
                .unwrap()
        };
        let a = mk();
        let b = mk();
        let request = || {
            AnalysisRequest::new("id").custom(|heap: &mut sling_lang::RtHeap| {
                let n = heap.alloc(
                    Symbol::intern("TNode"),
                    vec![sling_models::Val::Nil, sling_models::Val::Int(1)],
                );
                vec![sling_models::Val::Addr(n)]
            })
        };
        let first = a.analyze(&request()).unwrap();
        let second = b.analyze(&request()).unwrap();
        assert!(first.invariant_count() > 0);
        assert!(
            second.cache.hits > 0,
            "second engine must reuse the shared cache: {:?}",
            second.cache
        );
    }

    #[test]
    fn engines_are_shareable_across_threads() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Engine>();
    }

    #[test]
    fn parallelism_knob_clamps_to_one() {
        let engine = Engine::builder()
            .program_source(SRC)
            .unwrap()
            .parallelism(0)
            .build()
            .unwrap();
        assert_eq!(engine.parallelism(), 1);
    }

    #[test]
    fn executor_defaults_to_bytecode_and_builder_overrides() {
        assert_eq!(Executor::default(), Executor::Bytecode);
        let engine = Engine::builder()
            .program_source(SRC)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(engine.config().executor, Executor::Bytecode);
        // The engine compiles regardless of the executor, so listings
        // are always inspectable.
        assert!(engine.compiled().disassemble().contains("fn id"));

        // The builder's config selects it.
        for wanted in [Executor::Treewalk, Executor::Bytecode] {
            let engine = Engine::builder()
                .program_source(SRC)
                .unwrap()
                .config(SlingConfig {
                    executor: wanted,
                    ..SlingConfig::default()
                })
                .build()
                .unwrap();
            assert_eq!(engine.config().executor, wanted);
        }
    }

    #[test]
    fn executor_parse_paths() {
        // The wire decoder parses a report's executor tag here.
        assert_eq!(Executor::parse("bytecode"), Some(Executor::Bytecode));
        assert_eq!(Executor::parse("treewalk"), Some(Executor::Treewalk));
        assert_eq!(Executor::parse("Bytecode"), None, "names are exact");
        assert_eq!(Executor::parse("interp"), None);
    }

    #[test]
    fn reports_carry_collection_and_compile_timings() {
        let engine = Engine::builder()
            .program_source(SRC)
            .unwrap()
            .predicates_source(PREDS)
            .unwrap()
            .build()
            .unwrap();
        let request = AnalysisRequest::new("id").input(crate::InputSpec::seeded(1).arg(
            crate::ValueSpec::sll(
                sling_lang::ListLayout {
                    ty: Symbol::intern("TNode"),
                    nfields: 2,
                    next: 0,
                    prev: None,
                    data: Some(1),
                },
                3,
            ),
        ));
        let report = engine.analyze(&request).unwrap();
        assert_eq!(report.metrics.executor, Executor::Bytecode);
        assert!(report.metrics.collect_seconds >= 0.0);
        assert!(report.metrics.compile_seconds > 0.0, "compile was timed");
        assert!(report.metrics.collect_seconds <= report.metrics.seconds);
    }

    #[test]
    fn streaming_sink_sees_every_report() {
        let engine = Engine::builder()
            .program_source(SRC)
            .unwrap()
            .predicates_source(PREDS)
            .unwrap()
            .parallelism(2)
            .build()
            .unwrap();
        let requests: Vec<AnalysisRequest> = (0..4)
            .map(|n| {
                AnalysisRequest::new("id").input(crate::InputSpec::seeded(n).arg(
                    crate::ValueSpec::sll(
                        sling_lang::ListLayout {
                            ty: Symbol::intern("TNode"),
                            nfields: 2,
                            next: 0,
                            prev: None,
                            data: Some(1),
                        },
                        n as usize,
                    ),
                ))
            })
            .collect();
        let mut seen = Vec::new();
        let batch = engine
            .analyze_all_with(&requests, |index, report| {
                seen.push((index, report.target));
            })
            .unwrap();
        assert_eq!(batch.reports.len(), 4);
        assert_eq!(
            seen.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "sink must see each report exactly once, in request order"
        );
    }
}
