//! The token layer and the per-production readers and writers behind
//! [`proto`](crate::proto), which documents the grammar and owns the
//! frames. Nothing here is public: peers exchange frames, not
//! productions.

use sling::{
    AnalysisRequest, CacheStats, DataOrder, Diagnostic, ExactCell, ExactVal, Executor, Heap,
    HeapCell, InputSource, InputSpec, Invariant, InvariantGrade, InvariantStats, ListLayout, Loc,
    Location, LocationAnalysis, Report, RunMetrics, Severity, TreeKind, TreeLayout, Val, ValueSpec,
};
use sling_logic::{parse_formula, Span, Symbol};

use crate::proto::{WireError, WIRE_VERSION};

fn syntax(why: impl Into<String>) -> WireError {
    WireError::Syntax(why.into())
}

// ---------------------------------------------------------------------
// Token layer
// ---------------------------------------------------------------------

/// Appends space-separated tokens to one frame line.
///
/// Strings are quoted and escaped; everything else is a bare atom. The
/// finished line contains no newline — the transport adds the `\n` frame
/// delimiter.
#[derive(Debug, Default)]
pub(crate) struct WireWriter {
    buf: String,
}

impl WireWriter {
    /// An empty line.
    pub(crate) fn new() -> WireWriter {
        WireWriter::default()
    }

    /// Opens a frame: protocol tag plus frame kind.
    pub(crate) fn frame(kind: &str) -> WireWriter {
        let mut w = WireWriter::new();
        w.atom(WIRE_VERSION);
        w.atom(kind);
        w
    }

    fn sep(&mut self) {
        if !self.buf.is_empty() {
            self.buf.push(' ');
        }
    }

    /// Appends a bare token (must contain no spaces, quotes, or
    /// newlines — tags and numbers only).
    pub(crate) fn atom(&mut self, token: &str) {
        debug_assert!(
            !token.is_empty() && !token.contains([' ', '"', '\n', '\r']),
            "atoms must be bare words: {token:?}"
        );
        self.sep();
        self.buf.push_str(token);
    }

    /// Appends a quoted, escaped string token (arbitrary content).
    pub(crate) fn text(&mut self, s: &str) {
        self.sep();
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '\\' => self.buf.push_str("\\\\"),
                '"' => self.buf.push_str("\\\""),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    /// Appends an unsigned integer.
    pub(crate) fn u64(&mut self, n: u64) {
        use std::fmt::Write as _;
        self.sep();
        let _ = write!(self.buf, "{n}");
    }

    /// Appends a signed integer.
    pub(crate) fn i64(&mut self, n: i64) {
        use std::fmt::Write as _;
        self.sep();
        let _ = write!(self.buf, "{n}");
    }

    /// Appends a boolean (`t` / `f`).
    pub(crate) fn bool(&mut self, b: bool) {
        self.atom(if b { "t" } else { "f" });
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub(crate) fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Appends an optional index (`-` when absent).
    pub(crate) fn opt(&mut self, n: Option<usize>) {
        match n {
            None => self.atom("-"),
            Some(n) => self.u64(n as u64),
        }
    }

    /// The finished frame line (no trailing newline).
    pub(crate) fn finish(self) -> String {
        self.buf
    }
}

/// Consumes the tokens of one frame line.
#[derive(Debug)]
pub(crate) struct WireReader<'a> {
    rest: &'a str,
}

impl<'a> WireReader<'a> {
    /// A reader over one frame line.
    pub(crate) fn new(line: &'a str) -> WireReader<'a> {
        WireReader {
            rest: line.trim_end_matches(['\n', '\r']),
        }
    }

    /// Opens a frame: checks the protocol tag, returns the frame kind
    /// and a reader positioned at the payload.
    pub(crate) fn frame(line: &'a str) -> Result<(&'a str, WireReader<'a>), WireError> {
        let mut r = WireReader::new(line);
        let tag = r.atom()?;
        if tag != WIRE_VERSION {
            return Err(WireError::Version(tag.to_string()));
        }
        let kind = r.atom()?;
        Ok((kind, r))
    }

    fn skip_spaces(&mut self) {
        self.rest = self.rest.trim_start_matches(' ');
    }

    /// Reads one bare token.
    pub(crate) fn atom(&mut self) -> Result<&'a str, WireError> {
        self.skip_spaces();
        if self.rest.is_empty() {
            return Err(syntax("unexpected end of frame"));
        }
        if self.rest.starts_with('"') {
            return Err(syntax("expected atom, found string"));
        }
        let end = self.rest.find(' ').unwrap_or(self.rest.len());
        let (token, rest) = self.rest.split_at(end);
        self.rest = rest;
        Ok(token)
    }

    /// Reads one quoted string token, undoing the escapes.
    pub(crate) fn text(&mut self) -> Result<String, WireError> {
        self.skip_spaces();
        let mut chars = self.rest.char_indices();
        match chars.next() {
            Some((_, '"')) => {}
            Some(_) => return Err(syntax("expected string, found atom")),
            None => return Err(syntax("unexpected end of frame")),
        }
        let mut out = String::new();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.rest = &self.rest[i + 1..];
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '"')) => out.push('"'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, c)) => return Err(syntax(format!("bad escape `\\{c}`"))),
                    None => return Err(syntax("unterminated escape")),
                },
                c => out.push(c),
            }
        }
        Err(syntax("unterminated string"))
    }

    /// Reads an unsigned integer.
    pub(crate) fn u64(&mut self) -> Result<u64, WireError> {
        let token = self.atom()?;
        token
            .parse::<u64>()
            .map_err(|_| syntax(format!("bad integer `{token}`")))
    }

    /// Reads an unsigned integer as `usize`.
    pub(crate) fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| syntax("integer out of range"))
    }

    /// Reads a signed integer.
    pub(crate) fn i64(&mut self) -> Result<i64, WireError> {
        let token = self.atom()?;
        token
            .parse::<i64>()
            .map_err(|_| syntax(format!("bad integer `{token}`")))
    }

    /// Reads a boolean (`t` / `f`).
    pub(crate) fn bool(&mut self) -> Result<bool, WireError> {
        match self.atom()? {
            "t" => Ok(true),
            "f" => Ok(false),
            other => Err(syntax(format!("bad bool `{other}`"))),
        }
    }

    /// Reads an `f64` from its bit pattern.
    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an optional index (`-` for absent).
    pub(crate) fn opt(&mut self) -> Result<Option<usize>, WireError> {
        self.skip_spaces();
        if self.rest.starts_with('-') {
            self.atom()?;
            return Ok(None);
        }
        Ok(Some(self.usize()?))
    }

    /// Asserts every token was consumed.
    pub(crate) fn finish(&mut self) -> Result<(), WireError> {
        self.skip_spaces();
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(syntax(format!("trailing tokens: `{}`", self.rest)))
        }
    }
}

// ---------------------------------------------------------------------
// Specs and requests
// ---------------------------------------------------------------------

fn write_list_layout(w: &mut WireWriter, l: &ListLayout) {
    w.text(&l.ty.to_string());
    w.u64(l.nfields as u64);
    w.u64(l.next as u64);
    w.opt(l.prev);
    w.opt(l.data);
}

fn read_list_layout(r: &mut WireReader<'_>) -> Result<ListLayout, WireError> {
    Ok(ListLayout {
        ty: Symbol::intern(&r.text()?),
        nfields: r.usize()?,
        next: r.usize()?,
        prev: r.opt()?,
        data: r.opt()?,
    })
}

fn write_tree_layout(w: &mut WireWriter, l: &TreeLayout) {
    w.text(&l.ty.to_string());
    w.u64(l.nfields as u64);
    w.u64(l.left as u64);
    w.u64(l.right as u64);
    w.opt(l.parent);
    w.opt(l.data);
    w.opt(l.color);
}

fn read_tree_layout(r: &mut WireReader<'_>) -> Result<TreeLayout, WireError> {
    Ok(TreeLayout {
        ty: Symbol::intern(&r.text()?),
        nfields: r.usize()?,
        left: r.usize()?,
        right: r.usize()?,
        parent: r.opt()?,
        data: r.opt()?,
        color: r.opt()?,
    })
}

/// Writes one [`ValueSpec`] into an open frame.
fn write_value_spec(w: &mut WireWriter, spec: &ValueSpec) {
    match spec {
        ValueSpec::Nil => w.atom("nil"),
        ValueSpec::Int(k) => {
            w.atom("int");
            w.i64(*k);
        }
        ValueSpec::IntIn(lo, hi) => {
            w.atom("intin");
            w.i64(*lo);
            w.i64(*hi);
        }
        ValueSpec::List {
            layout,
            len,
            order,
            circular,
        } => {
            w.atom("list");
            write_list_layout(w, layout);
            w.u64(*len as u64);
            w.atom(match order {
                DataOrder::Random => "rand",
                DataOrder::Sorted => "sorted",
                DataOrder::Reversed => "rev",
            });
            w.bool(*circular);
        }
        ValueSpec::Tree { layout, size, kind } => {
            w.atom("tree");
            write_tree_layout(w, layout);
            w.u64(*size as u64);
            w.atom(match kind {
                TreeKind::Random => "rand",
                TreeKind::Bst => "bst",
                TreeKind::Balanced => "bal",
                TreeKind::RedBlack => "rb",
            });
        }
        ValueSpec::Exact { cells } => {
            w.atom("exact");
            w.u64(cells.len() as u64);
            for cell in cells {
                w.text(&cell.ty.to_string());
                w.u64(cell.fields.len() as u64);
                for field in &cell.fields {
                    match field {
                        ExactVal::Nil => w.atom("nil"),
                        ExactVal::Int(k) => {
                            w.atom("i");
                            w.i64(*k);
                        }
                        ExactVal::Cell(idx) => {
                            w.atom("c");
                            w.u64(*idx as u64);
                        }
                    }
                }
            }
        }
    }
}

/// Reads one [`ValueSpec`] from an open frame.
fn read_value_spec(r: &mut WireReader<'_>) -> Result<ValueSpec, WireError> {
    match r.atom()? {
        "nil" => Ok(ValueSpec::Nil),
        "int" => Ok(ValueSpec::Int(r.i64()?)),
        "intin" => Ok(ValueSpec::IntIn(r.i64()?, r.i64()?)),
        "list" => Ok(ValueSpec::List {
            layout: read_list_layout(r)?,
            len: r.usize()?,
            order: match r.atom()? {
                "rand" => DataOrder::Random,
                "sorted" => DataOrder::Sorted,
                "rev" => DataOrder::Reversed,
                other => return Err(syntax(format!("bad data order `{other}`"))),
            },
            circular: r.bool()?,
        }),
        "tree" => Ok(ValueSpec::Tree {
            layout: read_tree_layout(r)?,
            size: r.usize()?,
            kind: match r.atom()? {
                "rand" => TreeKind::Random,
                "bst" => TreeKind::Bst,
                "bal" => TreeKind::Balanced,
                "rb" => TreeKind::RedBlack,
                other => return Err(syntax(format!("bad tree kind `{other}`"))),
            },
        }),
        "exact" => {
            let ncells = r.usize()?;
            let mut cells = Vec::with_capacity(ncells.min(1 << 16));
            for _ in 0..ncells {
                let ty = Symbol::intern(&r.text()?);
                let nfields = r.usize()?;
                let mut fields = Vec::with_capacity(nfields.min(1 << 16));
                for _ in 0..nfields {
                    fields.push(match r.atom()? {
                        "nil" => ExactVal::Nil,
                        "i" => ExactVal::Int(r.i64()?),
                        "c" => {
                            let idx = r.usize()?;
                            if idx >= ncells {
                                return Err(syntax(format!(
                                    "exact cell index {idx} out of range (shape has {ncells} cells)"
                                )));
                            }
                            ExactVal::Cell(idx)
                        }
                        other => return Err(syntax(format!("bad exact value tag `{other}`"))),
                    });
                }
                cells.push(ExactCell { ty, fields });
            }
            Ok(ValueSpec::Exact { cells })
        }
        other => Err(syntax(format!("bad value spec tag `{other}`"))),
    }
}

/// Writes one [`InputSpec`] into an open frame.
fn write_input_spec(w: &mut WireWriter, spec: &InputSpec) {
    w.u64(spec.prng_seed());
    w.u64(spec.arg_specs().len() as u64);
    for arg in spec.arg_specs() {
        write_value_spec(w, arg);
    }
}

/// Reads one [`InputSpec`] from an open frame.
fn read_input_spec(r: &mut WireReader<'_>) -> Result<InputSpec, WireError> {
    let seed = r.u64()?;
    let count = r.usize()?;
    let mut spec = InputSpec::seeded(seed);
    for _ in 0..count {
        spec = spec.arg(read_value_spec(r)?);
    }
    Ok(spec)
}

fn read_u32(r: &mut WireReader<'_>) -> Result<u32, WireError> {
    let n = r.u64()?;
    u32::try_from(n).map_err(|_| syntax(format!("{n} does not fit in u32")))
}

/// Writes one [`AnalysisRequest`] into an open frame.
///
/// # Errors
///
/// [`WireError::Unsupported`] when the request carries anything only
/// meaningful in-process: a custom input closure.
pub(crate) fn write_request(
    w: &mut WireWriter,
    request: &AnalysisRequest,
) -> Result<(), WireError> {
    w.text(&request.target.to_string());
    w.u64(request.inputs.len() as u64);
    for input in &request.inputs {
        match input {
            InputSource::Spec(spec) => write_input_spec(w, spec),
            InputSource::Custom(_) => {
                return Err(WireError::Unsupported(
                    "custom input closures (use declarative InputSpecs)".into(),
                ));
            }
        }
    }
    Ok(())
}

/// Reads one [`AnalysisRequest`] from an open frame.
pub(crate) fn read_request(r: &mut WireReader<'_>) -> Result<AnalysisRequest, WireError> {
    let target = r.text()?;
    let count = r.usize()?;
    let mut request = AnalysisRequest::new(target.as_str());
    for _ in 0..count {
        request = request.input(read_input_spec(r)?);
    }
    Ok(request)
}

// ---------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------

fn write_location(w: &mut WireWriter, loc: Location) {
    match loc {
        Location::Entry => w.atom("entry"),
        Location::Exit(i) => {
            w.atom("exit");
            w.u64(i as u64);
        }
        Location::Label(s) => {
            w.atom("label");
            w.text(&s.to_string());
        }
        Location::LoopHead(s) => {
            w.atom("loop");
            w.text(&s.to_string());
        }
    }
}

fn read_location(r: &mut WireReader<'_>) -> Result<Location, WireError> {
    match r.atom()? {
        "entry" => Ok(Location::Entry),
        "exit" => Ok(Location::Exit(r.usize()?)),
        "label" => Ok(Location::Label(Symbol::intern(&r.text()?))),
        "loop" => Ok(Location::LoopHead(Symbol::intern(&r.text()?))),
        other => Err(syntax(format!("bad location tag `{other}`"))),
    }
}

fn write_val(w: &mut WireWriter, val: Val) {
    match val {
        Val::Nil => w.atom("nil"),
        Val::Int(k) => {
            w.atom("i");
            w.i64(k);
        }
        Val::Addr(loc) => {
            w.atom("a");
            w.u64(loc.raw());
        }
    }
}

fn read_val(r: &mut WireReader<'_>) -> Result<Val, WireError> {
    match r.atom()? {
        "nil" => Ok(Val::Nil),
        "i" => Ok(Val::Int(r.i64()?)),
        "a" => {
            let raw = r.u64()?;
            if raw == 0 {
                return Err(syntax("address 0 is reserved for nil"));
            }
            Ok(Val::Addr(Loc::new(raw)))
        }
        other => Err(syntax(format!("bad value tag `{other}`"))),
    }
}

fn write_heap(w: &mut WireWriter, heap: &Heap) {
    w.u64(heap.len() as u64);
    for loc in heap.domain() {
        let cell = heap.get(loc).expect("enumerated from the domain");
        w.u64(loc.raw());
        w.text(&cell.ty.to_string());
        w.u64(cell.fields.len() as u64);
        for val in &cell.fields {
            write_val(w, *val);
        }
    }
}

fn read_heap(r: &mut WireReader<'_>) -> Result<Heap, WireError> {
    let cells = r.usize()?;
    let mut heap = Heap::new();
    for _ in 0..cells {
        let raw = r.u64()?;
        if raw == 0 {
            return Err(syntax("address 0 is reserved for nil"));
        }
        let ty = Symbol::intern(&r.text()?);
        let nfields = r.usize()?;
        let mut fields = Vec::with_capacity(nfields.min(1 << 16));
        for _ in 0..nfields {
            fields.push(read_val(r)?);
        }
        heap.insert(Loc::new(raw), HeapCell::new(ty, fields));
    }
    Ok(heap)
}

fn write_grade(w: &mut WireWriter, grade: InvariantGrade) {
    w.atom(match grade {
        InvariantGrade::Ungraded => "ungraded",
        InvariantGrade::Verified => "verified",
        InvariantGrade::Refuted => "refuted",
        InvariantGrade::Confirmed => "confirmed",
        InvariantGrade::Unknown => "unknown",
    });
}

fn read_grade(r: &mut WireReader<'_>) -> Result<InvariantGrade, WireError> {
    match r.atom()? {
        "ungraded" => Ok(InvariantGrade::Ungraded),
        "verified" => Ok(InvariantGrade::Verified),
        "refuted" => Ok(InvariantGrade::Refuted),
        "confirmed" => Ok(InvariantGrade::Confirmed),
        "unknown" => Ok(InvariantGrade::Unknown),
        other => Err(syntax(format!("bad invariant grade `{other}`"))),
    }
}

fn write_invariant(w: &mut WireWriter, inv: &Invariant) {
    write_location(w, inv.location);
    w.text(&inv.formula.to_string());
    w.u64(inv.stats.singletons as u64);
    w.u64(inv.stats.preds as u64);
    w.u64(inv.stats.pures as u64);
    w.bool(inv.spurious);
    write_grade(w, inv.grade);
    w.u64(inv.residues.len() as u64);
    for heap in &inv.residues {
        write_heap(w, heap);
    }
    w.u64(inv.activations.len() as u64);
    for a in &inv.activations {
        w.u64(*a);
    }
}

fn read_invariant(r: &mut WireReader<'_>) -> Result<Invariant, WireError> {
    let location = read_location(r)?;
    let text = r.text()?;
    let formula = parse_formula(&text).map_err(|e| WireError::Formula(e.to_string()))?;
    let stats = InvariantStats {
        singletons: r.usize()?,
        preds: r.usize()?,
        pures: r.usize()?,
    };
    let spurious = r.bool()?;
    let grade = read_grade(r)?;
    let nresidues = r.usize()?;
    let mut residues = Vec::with_capacity(nresidues.min(1 << 16));
    for _ in 0..nresidues {
        residues.push(read_heap(r)?);
    }
    let nactivations = r.usize()?;
    let mut activations = Vec::with_capacity(nactivations.min(1 << 16));
    for _ in 0..nactivations {
        activations.push(r.u64()?);
    }
    Ok(Invariant {
        location,
        formula,
        residues,
        activations,
        stats,
        spurious,
        grade,
    })
}

fn write_location_analysis(w: &mut WireWriter, loc: &LocationAnalysis) {
    write_location(w, loc.location);
    w.u64(loc.models_used as u64);
    w.u64(loc.snapshots_seen as u64);
    w.bool(loc.tainted);
    w.u64(loc.invariants.len() as u64);
    for inv in &loc.invariants {
        write_invariant(w, inv);
    }
}

fn read_location_analysis(r: &mut WireReader<'_>) -> Result<LocationAnalysis, WireError> {
    let location = read_location(r)?;
    let models_used = r.usize()?;
    let snapshots_seen = r.usize()?;
    let tainted = r.bool()?;
    let count = r.usize()?;
    let mut invariants = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        invariants.push(read_invariant(r)?);
    }
    Ok(LocationAnalysis {
        location,
        invariants,
        models_used,
        snapshots_seen,
        tainted,
    })
}

/// Writes one static [`Diagnostic`] into an open frame (the
/// `diagnostic` production of `report` and `rejected` frames).
pub(crate) fn write_diagnostic(w: &mut WireWriter, d: &Diagnostic) {
    w.text(&d.code);
    w.atom(match d.severity {
        Severity::Warning => "warn",
        Severity::Deny => "deny",
    });
    match d.function {
        None => w.atom("-"),
        Some(func) => {
            w.atom("f");
            w.text(&func.to_string());
        }
    }
    w.u64(u64::from(d.span.lo));
    w.u64(u64::from(d.span.hi));
    w.text(&d.message);
    w.u64(d.notes.len() as u64);
    for note in &d.notes {
        w.text(note);
    }
}

/// Reads one static [`Diagnostic`] from an open frame.
pub(crate) fn read_diagnostic(r: &mut WireReader<'_>) -> Result<Diagnostic, WireError> {
    let code = r.text()?;
    let severity = match r.atom()? {
        "warn" => Severity::Warning,
        "deny" => Severity::Deny,
        other => return Err(syntax(format!("bad severity `{other}`"))),
    };
    let function = match r.atom()? {
        "-" => None,
        "f" => Some(Symbol::intern(&r.text()?)),
        other => return Err(syntax(format!("bad diagnostic function tag `{other}`"))),
    };
    let lo = read_u32(r)?;
    let hi = read_u32(r)?;
    let message = r.text()?;
    let nnotes = r.usize()?;
    let mut notes = Vec::with_capacity(nnotes.min(1 << 16));
    for _ in 0..nnotes {
        notes.push(r.text()?);
    }
    Ok(Diagnostic {
        code,
        severity,
        function,
        span: Span::new(lo, hi),
        message,
        notes,
    })
}

/// Writes [`RunMetrics`] into an open frame.
fn write_metrics(w: &mut WireWriter, m: &RunMetrics) {
    w.u64(m.traces as u64);
    w.u64(m.runs as u64);
    w.u64(m.faulted_runs as u64);
    w.u64(m.workers as u64);
    w.f64(m.seconds);
    w.u64(m.verified as u64);
    w.u64(m.refuted as u64);
    w.u64(m.confirmed as u64);
    w.u64(m.unknown as u64);
    w.u64(m.refuted_initial as u64);
    w.u64(m.cegir_rounds as u64);
    w.f64(m.verify_seconds);
    w.f64(m.collect_seconds);
    w.f64(m.compile_seconds);
    w.atom(&m.executor.to_string());
    w.u64(m.static_warnings as u64);
}

/// Reads [`RunMetrics`] from an open frame.
fn read_metrics(r: &mut WireReader<'_>) -> Result<RunMetrics, WireError> {
    Ok(RunMetrics {
        traces: r.usize()?,
        runs: r.usize()?,
        faulted_runs: r.usize()?,
        workers: r.usize()?,
        seconds: r.f64()?,
        verified: r.usize()?,
        refuted: r.usize()?,
        confirmed: r.usize()?,
        unknown: r.usize()?,
        refuted_initial: r.usize()?,
        cegir_rounds: r.usize()?,
        verify_seconds: r.f64()?,
        collect_seconds: r.f64()?,
        compile_seconds: r.f64()?,
        executor: {
            let name = r.atom()?;
            Executor::parse(name)
                .ok_or_else(|| WireError::Syntax(format!("unknown executor {name:?}")))?
        },
        static_warnings: r.usize()?,
    })
}

/// Writes [`CacheStats`] into an open frame.
pub(crate) fn write_cache_stats(w: &mut WireWriter, s: &CacheStats) {
    w.u64(s.hits);
    w.u64(s.warm_hits);
    w.u64(s.misses);
    w.u64(s.entries);
    w.u64(s.evictions);
    w.u64(s.resident_bytes);
}

/// Reads [`CacheStats`] from an open frame.
pub(crate) fn read_cache_stats(r: &mut WireReader<'_>) -> Result<CacheStats, WireError> {
    Ok(CacheStats {
        hits: r.u64()?,
        warm_hits: r.u64()?,
        misses: r.u64()?,
        entries: r.u64()?,
        evictions: r.u64()?,
        resident_bytes: r.u64()?,
    })
}

/// Writes one [`Report`] into an open frame.
pub(crate) fn write_report(w: &mut WireWriter, report: &Report) {
    w.text(&report.target.to_string());
    write_metrics(w, &report.metrics);
    write_cache_stats(w, &report.cache);
    w.u64(report.declared_locations.len() as u64);
    for loc in &report.declared_locations {
        write_location(w, *loc);
    }
    w.u64(report.locations.len() as u64);
    for loc in &report.locations {
        write_location_analysis(w, loc);
    }
    w.u64(report.static_warnings.len() as u64);
    for d in &report.static_warnings {
        write_diagnostic(w, d);
    }
    w.u64(report.unreachable_locations.len() as u64);
    for loc in &report.unreachable_locations {
        write_location(w, *loc);
    }
}

/// Reads one [`Report`] from an open frame.
pub(crate) fn read_report(r: &mut WireReader<'_>) -> Result<Report, WireError> {
    let target = Symbol::intern(&r.text()?);
    let metrics = read_metrics(r)?;
    let cache = read_cache_stats(r)?;
    let ndecl = r.usize()?;
    let mut declared_locations = Vec::with_capacity(ndecl.min(1 << 16));
    for _ in 0..ndecl {
        declared_locations.push(read_location(r)?);
    }
    let nlocs = r.usize()?;
    let mut locations = Vec::with_capacity(nlocs.min(1 << 16));
    for _ in 0..nlocs {
        locations.push(read_location_analysis(r)?);
    }
    let nwarn = r.usize()?;
    let mut static_warnings = Vec::with_capacity(nwarn.min(1 << 16));
    for _ in 0..nwarn {
        static_warnings.push(read_diagnostic(r)?);
    }
    let nunreach = r.usize()?;
    let mut unreachable_locations = Vec::with_capacity(nunreach.min(1 << 16));
    for _ in 0..nunreach {
        unreachable_locations.push(read_location(r)?);
    }
    Ok(Report {
        target,
        locations,
        declared_locations,
        metrics,
        cache,
        static_warnings,
        unreachable_locations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_analyze_frame, encode_report_frame, ClientFrame, ServerFrame};

    /// One request through an `analyze` frame and back.
    fn through_analyze_frame(request: &AnalysisRequest) -> Result<AnalysisRequest, WireError> {
        let line = encode_analyze_frame(1, None, std::slice::from_ref(request))?;
        match ClientFrame::decode(&line)? {
            ClientFrame::Analyze { mut requests, .. } if requests.len() == 1 => {
                Ok(requests.remove(0))
            }
            other => panic!("decoded {other:?}"),
        }
    }

    /// One report through a `report` frame and back.
    fn through_report_frame(report: &Report) -> Result<Report, WireError> {
        match ServerFrame::decode(&encode_report_frame(7, 3, report))? {
            ServerFrame::Report {
                id: 7,
                index: 3,
                report,
            } => Ok(report),
            other => panic!("decoded {other:?}"),
        }
    }

    fn list_layout(ty: &str) -> ListLayout {
        ListLayout {
            ty: Symbol::intern(ty),
            nfields: 3,
            next: 0,
            prev: Some(1),
            data: Some(2),
        }
    }

    fn tree_layout(ty: &str) -> TreeLayout {
        TreeLayout {
            ty: Symbol::intern(ty),
            nfields: 5,
            left: 0,
            right: 1,
            parent: Some(2),
            data: Some(3),
            color: Some(4),
        }
    }

    /// Every constructor, plus extremes: the codec must round-trip all
    /// of them Debug-identically.
    fn value_spec_zoo() -> Vec<ValueSpec> {
        vec![
            ValueSpec::nil(),
            ValueSpec::int(0),
            ValueSpec::int(i64::MIN),
            ValueSpec::int(i64::MAX),
            ValueSpec::int_in(i64::MIN, i64::MAX),
            ValueSpec::int_in(-5, 5),
            ValueSpec::sll(
                ListLayout {
                    ty: Symbol::intern("WNode"),
                    nfields: 1,
                    next: 0,
                    prev: None,
                    data: None,
                },
                0,
            ),
            ValueSpec::sll(list_layout("WNode"), u32::MAX as usize),
            ValueSpec::dll(list_layout("WNode"), 7),
            ValueSpec::cyclic(list_layout("WNode"), 3).with_order(DataOrder::Sorted),
            ValueSpec::sll(list_layout("WNode"), 4).with_order(DataOrder::Reversed),
            ValueSpec::tree(tree_layout("WTree"), 9, TreeKind::Random),
            ValueSpec::tree(tree_layout("WTree"), 0, TreeKind::Bst),
            ValueSpec::tree(tree_layout("WTree"), 31, TreeKind::Balanced),
            ValueSpec::tree(tree_layout("WTree"), 15, TreeKind::RedBlack),
            ValueSpec::exact(vec![]),
            ValueSpec::exact(vec![
                ExactCell {
                    ty: Symbol::intern("WNode"),
                    fields: vec![ExactVal::Cell(1), ExactVal::Int(i64::MIN)],
                },
                ExactCell {
                    ty: Symbol::intern("WNode"),
                    fields: vec![ExactVal::Nil, ExactVal::Int(7)],
                },
            ]),
        ]
    }

    fn round_trip_value(spec: &ValueSpec) -> ValueSpec {
        let mut w = WireWriter::new();
        write_value_spec(&mut w, spec);
        let line = w.finish();
        let mut r = WireReader::new(&line);
        let back = read_value_spec(&mut r).expect("round trip parses");
        r.finish().expect("no trailing tokens");
        back
    }

    #[test]
    fn every_value_spec_round_trips() {
        for spec in value_spec_zoo() {
            let back = round_trip_value(&spec);
            assert_eq!(format!("{back:?}"), format!("{spec:?}"));
        }
    }

    #[test]
    fn input_specs_round_trip_with_extreme_seeds() {
        for seed in [0, 1, u64::MAX, u64::MAX - 1, 0x8000_0000_0000_0000] {
            let spec = InputSpec::seeded(seed).args(value_spec_zoo());
            let mut w = WireWriter::new();
            write_input_spec(&mut w, &spec);
            let line = w.finish();
            let mut r = WireReader::new(&line);
            let back = read_input_spec(&mut r).expect("round trip parses");
            r.finish().expect("no trailing tokens");
            assert_eq!(format!("{back:?}"), format!("{spec:?}"));
        }
    }

    #[test]
    fn requests_round_trip_and_materialize_identically() {
        let request = AnalysisRequest::new("reverse")
            .input(InputSpec::seeded(3).arg(ValueSpec::sll(list_layout("WNode"), 5)))
            .input(InputSpec::seeded(9).args([ValueSpec::int_in(-10, 10), ValueSpec::nil()]));
        let back = through_analyze_frame(&request).unwrap();
        assert_eq!(format!("{back:?}"), format!("{request:?}"));

        // Decoded specs build bit-identical inputs.
        for (a, b) in request.inputs.iter().zip(&back.inputs) {
            let mut ha = sling_lang::RtHeap::new();
            let mut hb = sling_lang::RtHeap::new();
            assert_eq!(a.build(&mut ha), b.build(&mut hb));
            assert_eq!(format!("{}", ha.live()), format!("{}", hb.live()));
        }
    }

    #[test]
    fn quoted_targets_survive_hostile_names() {
        // Interned symbols accept arbitrary strings; the codec must not
        // let quotes, spaces, or newlines break the frame.
        let hostile = "evil \"name\"\nwith\ttokens \\ and spaces";
        let request = AnalysisRequest::new(hostile);
        let back = through_analyze_frame(&request).unwrap();
        assert_eq!(back.target, Symbol::intern(hostile));
    }

    #[test]
    fn custom_closures_are_rejected_typed() {
        let custom = AnalysisRequest::new("f").custom(|_| vec![Val::Nil]);
        assert!(matches!(
            encode_analyze_frame(1, None, &[custom]),
            Err(WireError::Unsupported(_))
        ));
    }

    fn sample_report() -> Report {
        let engine = sling::Engine::builder()
            .program_source(
                "struct WireNode { next: WireNode*; data: int; }
                 fn walk(x: WireNode*) -> WireNode* {
                     var c: WireNode* = x;
                     while @w (c != null) { c = c->next; }
                     return x;
                 }",
            )
            .unwrap()
            .predicates_source(
                "pred wlist(x: WireNode*) := emp & x == nil
                   | exists u, d. x -> WireNode{next: u, data: d} * wlist(u);",
            )
            .unwrap()
            .build()
            .unwrap();
        let layout = ListLayout {
            ty: Symbol::intern("WireNode"),
            nfields: 2,
            next: 0,
            prev: None,
            data: Some(1),
        };
        let request = AnalysisRequest::new("walk")
            .input(InputSpec::seeded(1).arg(ValueSpec::sll(layout, 0)))
            .input(InputSpec::seeded(2).arg(ValueSpec::sll(layout, 4)));
        engine.analyze(&request).unwrap()
    }

    #[test]
    fn real_reports_round_trip_debug_identically() {
        let report = sample_report();
        assert!(report.invariant_count() > 0, "sample must infer something");
        let back = through_report_frame(&report).unwrap();
        // Formula Display round-trips up to binder names; the sample's
        // formulas use the default fresh-variable names, so the full
        // Debug forms must match exactly.
        assert_eq!(format!("{back:?}"), format!("{report:?}"));
    }

    #[test]
    fn metrics_round_trip_exact_seconds() {
        let metrics = RunMetrics {
            traces: 12,
            runs: 3,
            faulted_runs: 1,
            workers: 4,
            seconds: 0.1 + 0.2, // not representable in decimal text
            verified: 5,
            refuted: 1,
            confirmed: 2,
            unknown: 3,
            refuted_initial: 4,
            cegir_rounds: 2,
            verify_seconds: 0.1 + 0.7,
            collect_seconds: 0.1 + 0.4,
            compile_seconds: 1e-7 + 3e-8,
            executor: Executor::Treewalk,
            static_warnings: 6,
        };
        let mut w = WireWriter::new();
        write_metrics(&mut w, &metrics);
        let line = w.finish();
        let mut r = WireReader::new(&line);
        let back = read_metrics(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, metrics);
        assert_eq!(back.seconds.to_bits(), metrics.seconds.to_bits());
    }

    #[test]
    fn malformed_frames_are_rejected_with_typed_errors() {
        let good = encode_report_frame(7, 3, &sample_report());

        // Wrong protocol tag.
        assert!(matches!(
            ServerFrame::decode(&good.replacen(WIRE_VERSION, "sling8", 1)),
            Err(WireError::Version(v)) if v == "sling8"
        ));
        // Wrong frame kind for the decoder.
        assert!(matches!(
            ClientFrame::decode(&good),
            Err(WireError::Syntax(_))
        ));
        // Truncations anywhere must error, never panic.
        for cut in [0, 1, 7, 10, good.len() / 3, good.len() / 2, good.len() - 1] {
            let mut prefix = good[..cut].to_string();
            while !prefix.is_char_boundary(prefix.len()) {
                prefix.pop();
            }
            assert!(
                ServerFrame::decode(&prefix).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        // Trailing garbage is rejected.
        assert!(matches!(
            ServerFrame::decode(&format!("{good} 17")),
            Err(WireError::Syntax(_))
        ));
        // Corrupt numeric token.
        assert!(ServerFrame::decode(&good.replacen(" 0 ", " zero ", 1)).is_err());
        // An exact-shape cell index past the shape is rejected.
        let mut w = WireWriter::new();
        write_value_spec(
            &mut w,
            &ValueSpec::exact(vec![ExactCell {
                ty: Symbol::intern("WNode"),
                fields: vec![ExactVal::Cell(1)],
            }]),
        );
        let dangling = w.finish();
        assert!(matches!(
            read_value_spec(&mut WireReader::new(&dangling)),
            Err(WireError::Syntax(_))
        ));
        // An unknown executor atom in metrics is rejected, not defaulted.
        let mut w = WireWriter::new();
        write_metrics(&mut w, &RunMetrics::default());
        let jit = w.finish().replace("bytecode", "jit");
        assert!(matches!(
            read_metrics(&mut WireReader::new(&jit)),
            Err(WireError::Syntax(e)) if e.contains("jit")
        ));
        // A formula that does not re-parse is a typed Formula error.
        let mut w = WireWriter::frame("report");
        w.u64(7); // batch id
        w.u64(3); // index in the batch
        w.text("walk");
        write_metrics(&mut w, &RunMetrics::default());
        write_cache_stats(&mut w, &CacheStats::default());
        w.u64(0); // declared locations
        w.u64(1); // one location report
        w.atom("entry");
        w.u64(0);
        w.u64(0);
        w.bool(false);
        w.u64(1); // one invariant
        w.atom("entry");
        w.text("this is ( not a formula");
        assert!(matches!(
            ServerFrame::decode(&w.finish()),
            Err(WireError::Formula(_))
        ));
    }

    #[test]
    fn diagnostics_round_trip_with_hostile_payloads() {
        use sling::lint_codes as codes;
        let zoo = [
            Diagnostic::new(codes::DEAD_STORE, Severity::Warning, "plain warning"),
            Diagnostic::new(
                codes::UNPRODUCTIVE_PRED,
                Severity::Deny,
                "message with \"quotes\"\nand newlines",
            )
            .in_function(Symbol::intern("evil \"fn\" name"))
            .with_note("first note")
            .with_note("cycle: a -> b -> a"),
            Diagnostic::new(codes::NULL_DEREF, Severity::Deny, "")
                .with_span(Span::new(7, u32::MAX)),
        ];
        for d in &zoo {
            let mut w = WireWriter::new();
            write_diagnostic(&mut w, d);
            let line = w.finish();
            let mut r = WireReader::new(&line);
            let back = read_diagnostic(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(&back, d);
        }
        // Bad severity and function tags are typed syntax errors.
        let mut w = WireWriter::new();
        write_diagnostic(&mut w, &zoo[0]);
        let bad = w.finish().replacen(" warn ", " fatal ", 1);
        assert!(matches!(
            read_diagnostic(&mut WireReader::new(&bad)),
            Err(WireError::Syntax(e)) if e.contains("fatal")
        ));
    }

    #[test]
    fn reports_with_static_findings_round_trip() {
        let mut report = sample_report();
        report.static_warnings = vec![Diagnostic::new(
            sling::lint_codes::DEAD_STORE,
            Severity::Warning,
            "initializer of `c` is never used",
        )
        .in_function(Symbol::intern("walk"))
        .with_span(Span::new(100, 120))
        .with_note("no later statement or snapshot location observes this value")];
        report.metrics.static_warnings = 1;
        report.unreachable_locations =
            vec![Location::Label(Symbol::intern("dead")), Location::Exit(1)];
        let back = through_report_frame(&report).unwrap();
        assert_eq!(format!("{back:?}"), format!("{report:?}"));
        assert_eq!(
            back.missing_locations()
                .iter()
                .filter(|(_, unreachable)| *unreachable)
                .count(),
            0,
            "sample's declared locations are all reachable"
        );
    }

    #[test]
    fn reader_rejects_atom_string_confusion() {
        let mut w = WireWriter::new();
        w.text("hello");
        w.atom("world");
        let line = w.finish();
        let mut r = WireReader::new(&line);
        assert!(matches!(r.atom(), Err(WireError::Syntax(_))));
        assert_eq!(r.text().unwrap(), "hello");
        assert!(matches!(r.text(), Err(WireError::Syntax(_))));
        assert_eq!(r.atom().unwrap(), "world");
        assert!(r.finish().is_ok());
    }
}
