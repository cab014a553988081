//! The serve protocol: its frames, and the text codec they travel in.
//!
//! Both ends exchange newline-delimited frames. Every frame is one line
//! of space-separated tokens, opened by the protocol tag
//! [`WIRE_VERSION`] and a frame kind. Client-to-server frames carry
//! work; server-to-client frames stream results. The build is offline
//! (no serde), so the codec is hand-rolled; its token layer and
//! productions are private to this crate, and only the frames below are
//! public.
//!
//! # Grammar (version `sling9`)
//!
//! ```text
//! frame      := "sling9" SP kind SP payload          ; one line, LF-terminated on the wire
//! token      := atom | string
//! atom       := [^ "\n]+                             ; bare word (tags, numbers)
//! string     := '"' escaped* '"'                     ; \\ \" \n \r \t escapes
//!
//! client → server   analyze id:u64 tenant n:u64 request*
//! client → server   ping
//! server → client   hello warm_entries:u64 parallelism:u64 poolstats ; on connect
//! server → client   busy active:u64 max:u64                          ; on connect, saturated
//! server → client   pong
//! server → client   report id:u64 index:u64 report                   ; request order
//! server → client   done id:u64 nreports:u64 cache verifytotals poolstats
//! server → client   rejected id:u64 n:u64 diagnostic*                ; upload failed the gate
//! server → client   error id:u64 message:string                      ; id 0 = unattributable
//!
//! tenant       := "-"                                ; the daemon's default engine
//!               | "upload" program:string predicates:string
//! poolstats    := hits:u64 misses:u64 evictions:u64 resident:u64 cap:u64
//! verifytotals := verified:u64 refuted:u64 confirmed:u64 unknown:u64
//!                 refuted0:u64 cegir:u64 vseconds:f64bits
//!
//! request    := target:string ninputs:u64 inputspec*
//! inputspec  := seed:u64 nargs:u64 valuespec*
//! valuespec  := "nil" | "int" i64 | "intin" i64 i64
//!             | "list" listlayout len:u64 order circular:bool
//!             | "tree" treelayout size:u64 treekind
//!             | "exact" ncells:u64 exactcell*
//! listlayout := ty:string nfields:u64 next:u64 opt opt       ; prev, data
//! treelayout := ty:string nfields:u64 left:u64 right:u64 opt opt opt ; parent, data, color
//! exactcell  := ty:string nfields:u64 exactval*
//! exactval   := "nil" | "i" i64 | "c" idx:u64               ; c = intra-shape cell index
//! opt        := "-" | u64
//! order      := "rand" | "sorted" | "rev"
//! treekind   := "rand" | "bst" | "bal" | "rb"
//! bool       := "t" | "f"
//!
//! report     := target:string metrics cache ndecl:u64 location* nlocs:u64 locreport*
//!               nwarn:u64 diagnostic* nunreach:u64 location*
//! metrics    := traces:u64 runs:u64 faulted:u64 workers:u64 seconds:f64bits
//!               verified:u64 refuted:u64 confirmed:u64 unknown:u64
//!               refuted0:u64 cegir:u64 vseconds:f64bits cseconds:f64bits
//!               bseconds:f64bits executor:("bytecode"|"treewalk") swarnings:u64
//! cache      := hits:u64 warm:u64 misses:u64 entries:u64 evictions:u64 resident:u64
//! locreport  := location models:u64 snaps:u64 tainted:bool ninv:u64 invariant*
//! invariant  := location formula:string stats spurious:bool grade
//!               nresidues:u64 heap* nactivations:u64 u64*
//! location   := "entry" | "exit" u64 | "label" string | "loop" string
//! stats      := singletons:u64 preds:u64 pures:u64
//! grade      := "ungraded" | "verified" | "refuted" | "confirmed" | "unknown"
//! heap       := ncells:u64 (loc:u64 ty:string nfields:u64 val*)*
//! val        := "nil" | "i" i64 | "a" u64
//! diagnostic := code:string severity ("-" | "f" fn:string) lo:u64 hi:u64
//!               message:string nnotes:u64 note:string*
//! severity   := "warn" | "deny"
//! ```
//!
//! Formulas travel as their [`Display`](std::fmt::Display) text and are
//! re-parsed with [`sling_logic::parse_formula`] on decode; the printer
//! guarantees the round trip (up to binder names). `f64` values travel as
//! their IEEE bit pattern, so metrics round-trip exactly. Malformed input
//! is rejected with a typed [`WireError`]; decoding never panics.
//!
//! `id` is a client-chosen correlation number echoed on every frame of
//! the batch's response, so one connection can distinguish interleaved
//! responses. Reports stream in request order, each as soon as it is
//! done; the `index` token is the request's position in the batch, and
//! the client files each report under it. Each report carries its own
//! cache delta, and the deltas add up to the `done` frame's.
//!
//! The `tenant` slot is what makes the daemon multi-tenant: an `upload`
//! carries MiniC program and predicate-library source, and the server
//! resolves it against its engine pool — building on miss, reusing on
//! hit — before running the batch. Every upload passes the static
//! diagnostics gate before pooling: a program with deny-level findings
//! (use-before-init, unreachable snapshot locations, definite-null
//! dereferences, unproductive predicate cycles) is answered with a
//! typed `rejected` frame carrying the structured findings. Other build
//! failures (parse, typecheck) get a plain `error` frame. Either way
//! the connection stays healthy. `poolstats` on `hello` and `done` make
//! the pool's behaviour (hits, misses, LRU evictions, residency against
//! the cap) observable on the wire.
//!
//! # Example
//!
//! ```
//! use sling::{AnalysisRequest, InputSpec, ValueSpec};
//! use sling_serve::proto::{encode_analyze_frame, ClientFrame, WireError};
//!
//! let request = AnalysisRequest::new("reverse")
//!     .input(InputSpec::seeded(7).arg(ValueSpec::int_in(0, 9)));
//! let line = encode_analyze_frame(1, None, std::slice::from_ref(&request))?;
//! assert!(line.starts_with("sling9 analyze 1 - 1 \"reverse\" 1 7"));
//! match ClientFrame::decode(&line)? {
//!     ClientFrame::Analyze { requests, .. } => {
//!         assert_eq!(format!("{:?}", requests[0]), format!("{request:?}"));
//!     }
//!     other => panic!("decoded {other:?}"),
//! }
//! # Ok::<(), WireError>(())
//! ```

use std::fmt;
use std::io::{self, Read};

use sling::{AnalysisRequest, CacheStats, Diagnostics, Report};

use crate::wire::{self, WireReader, WireWriter};

/// Protocol tag opening every frame. Any change to the frame bytes bumps
/// it, so a peer speaking another version gets [`WireError::Version`]
/// instead of a misparse.
pub const WIRE_VERSION: &str = "sling9";

/// Why a wire frame could not be encoded or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The token stream is malformed (truncated, bad tag, bad number,
    /// unterminated string, trailing garbage, ...).
    Syntax(String),
    /// The frame opens with a protocol tag other than [`WIRE_VERSION`].
    Version(String),
    /// The value cannot travel over the wire at all (custom input
    /// closures).
    Unsupported(String),
    /// A formula payload failed to re-parse on decode.
    Formula(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Syntax(why) => write!(f, "malformed wire frame: {why}"),
            WireError::Version(found) => write!(
                f,
                "unsupported wire protocol `{found}` (this build speaks `{WIRE_VERSION}`)"
            ),
            WireError::Unsupported(what) => write!(f, "not expressible on the wire: {what}"),
            WireError::Formula(why) => write!(f, "formula failed to re-parse: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Verification-grade totals for a whole batch, summed over every
/// report's [`RunMetrics`](sling::RunMetrics) and carried on the `done`
/// epilogue so a client sees the grading outcome — and what the
/// counterexample-guided refinement loop did — without walking the
/// individual reports. All-zero when the serving engine runs without
/// the verification post-pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VerifyTotals {
    /// Invariants graded `Verified` across the batch.
    pub verified: u64,
    /// Invariants still graded `Refuted` after the final refinement
    /// round.
    pub refuted: u64,
    /// Invariants re-graded `Confirmed` (a refutation witness survived
    /// re-inference) across the batch.
    pub confirmed: u64,
    /// Invariants the prover could not decide within its budget.
    pub unknown: u64,
    /// Refutations before any refinement ran.
    pub refuted_initial: u64,
    /// Counterexample-guided refinement rounds, summed over the batch.
    pub cegir_rounds: u64,
    /// Wall-clock seconds spent grading, summed over the batch.
    pub verify_seconds: f64,
}

impl VerifyTotals {
    /// Sums the verification metrics of every report in a batch.
    pub fn from_reports(reports: &[Report]) -> VerifyTotals {
        let mut totals = VerifyTotals::default();
        for report in reports {
            let m = &report.metrics;
            totals.verified += m.verified as u64;
            totals.refuted += m.refuted as u64;
            totals.confirmed += m.confirmed as u64;
            totals.unknown += m.unknown as u64;
            totals.refuted_initial += m.refuted_initial as u64;
            totals.cegir_rounds += m.cegir_rounds as u64;
            totals.verify_seconds += m.verify_seconds;
        }
        totals
    }

    fn write(&self, w: &mut WireWriter) {
        w.u64(self.verified);
        w.u64(self.refuted);
        w.u64(self.confirmed);
        w.u64(self.unknown);
        w.u64(self.refuted_initial);
        w.u64(self.cegir_rounds);
        w.f64(self.verify_seconds);
    }

    fn read(r: &mut WireReader<'_>) -> Result<VerifyTotals, WireError> {
        Ok(VerifyTotals {
            verified: r.u64()?,
            refuted: r.u64()?,
            confirmed: r.u64()?,
            unknown: r.u64()?,
            refuted_initial: r.u64()?,
            cegir_rounds: r.u64()?,
            verify_seconds: r.f64()?,
        })
    }
}

/// Program + predicate-library source a batch uploads, selecting (or
/// building) the pool engine that serves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramUpload {
    /// MiniC program source.
    pub program: String,
    /// Inductive predicate definitions.
    pub predicates: String,
}

impl ProgramUpload {
    fn write(&self, w: &mut WireWriter) {
        w.atom("upload");
        w.text(&self.program);
        w.text(&self.predicates);
    }

    fn read(r: &mut WireReader<'_>) -> Result<Option<ProgramUpload>, WireError> {
        match r.atom()? {
            "-" => Ok(None),
            "upload" => Ok(Some(ProgramUpload {
                program: r.text()?,
                predicates: r.text()?,
            })),
            other => Err(WireError::Syntax(format!("bad tenant tag `{other}`"))),
        }
    }
}

/// Engine-pool movement counters, carried on `hello` (lifetime so far)
/// and `done` (lifetime through this batch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Batches served by an already-built engine.
    pub hits: u64,
    /// Batches that had to build their engine first.
    pub misses: u64,
    /// Engines evicted least-recently-used to stay under the cap.
    pub evictions: u64,
    /// Engines currently resident (excluding the default tenant).
    pub resident: u64,
    /// The pool's capacity bound.
    pub capacity: u64,
}

impl PoolStats {
    fn write(&self, w: &mut WireWriter) {
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.evictions);
        w.u64(self.resident);
        w.u64(self.capacity);
    }

    fn read(r: &mut WireReader<'_>) -> Result<PoolStats, WireError> {
        Ok(PoolStats {
            hits: r.u64()?,
            misses: r.u64()?,
            evictions: r.u64()?,
            resident: r.u64()?,
            capacity: r.u64()?,
        })
    }
}

/// A frame the client sends.
#[derive(Debug)]
pub enum ClientFrame {
    /// Run a batch of requests; stream a `report` frame per request and
    /// a final `done` frame, all echoing `id`.
    Analyze {
        /// Client-chosen correlation id echoed on every response frame.
        id: u64,
        /// Uploaded program + predicates this batch runs against, or
        /// `None` for the daemon's default engine.
        upload: Option<ProgramUpload>,
        /// The batch, in request order.
        requests: Vec<AnalysisRequest>,
    },
    /// Liveness probe; answered with `pong`.
    Ping,
}

impl ClientFrame {
    /// Encodes the frame as one line (no trailing newline).
    ///
    /// # Errors
    ///
    /// [`WireError::Unsupported`] when a request carries a custom input
    /// closure.
    pub fn encode(&self) -> Result<String, WireError> {
        match self {
            ClientFrame::Analyze {
                id,
                upload,
                requests,
            } => encode_analyze_frame(*id, upload.as_ref(), requests),
            ClientFrame::Ping => Ok(WireWriter::frame("ping").finish()),
        }
    }

    /// Decodes one client line.
    pub fn decode(line: &str) -> Result<ClientFrame, WireError> {
        let (kind, mut r) = WireReader::frame(line)?;
        match kind {
            "analyze" => {
                let id = r.u64()?;
                let upload = ProgramUpload::read(&mut r)?;
                let count = r.usize()?;
                let mut requests = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    requests.push(wire::read_request(&mut r)?);
                }
                r.finish()?;
                Ok(ClientFrame::Analyze {
                    id,
                    upload,
                    requests,
                })
            }
            "ping" => {
                r.finish()?;
                Ok(ClientFrame::Ping)
            }
            other => Err(WireError::Syntax(format!(
                "unknown client frame kind `{other}`"
            ))),
        }
    }

    /// Best-effort correlation id of a line that failed to decode, so
    /// the server can attribute its `error` frame (0 when the id itself
    /// is unreadable).
    pub fn salvage_id(line: &str) -> u64 {
        WireReader::frame(line)
            .ok()
            .and_then(|(kind, mut r)| (kind == "analyze").then(|| r.u64().ok()).flatten())
            .unwrap_or(0)
    }
}

/// A frame the server sends.
#[derive(Debug)]
pub enum ServerFrame {
    /// Connection banner: the engine's warm-restored entry count,
    /// worker budget, and the engine pool's lifetime counters.
    Hello {
        /// Entries the serving engine restored from its cache snapshot
        /// (0 when the daemon boots without a default tenant).
        warm_entries: u64,
        /// The serving engine's worker budget.
        parallelism: u64,
        /// Engine-pool counters at connect time.
        pool: PoolStats,
    },
    /// Sent instead of `hello` when the service is at its
    /// [`max_connections`](crate::ServeOptions::max_connections) bound;
    /// the connection closes right after. Clients retry
    /// ([`Client::connect_retry`](crate::Client::connect_retry)) or
    /// surface [`ServeError::Busy`](crate::ServeError::Busy).
    Busy {
        /// Connections the service is currently handling.
        active: u64,
        /// The configured connection bound.
        max: u64,
    },
    /// Answer to `ping`.
    Pong,
    /// One completed report of batch `id` (streamed, request order).
    Report {
        /// Correlation id of the batch.
        id: u64,
        /// The request's position in the batch.
        index: u64,
        /// The completed report.
        report: Report,
    },
    /// Batch `id` finished; `count` reports were streamed.
    Done {
        /// Correlation id of the batch.
        id: u64,
        /// Number of `report` frames that preceded this.
        count: u64,
        /// Checker-cache movement across the whole batch.
        cache: CacheStats,
        /// Verification-grade totals across the whole batch (all zero
        /// when the serving engine runs without the post-pass).
        verify: VerifyTotals,
        /// Engine-pool counters through this batch.
        pool: PoolStats,
    },
    /// Batch `id`'s upload failed the static diagnostics gate: the
    /// program carries deny-level findings and no engine was pooled for
    /// it. The structured findings travel typed, so clients can act on
    /// codes and spans instead of parsing prose.
    Rejected {
        /// Correlation id of the batch.
        id: u64,
        /// The findings (deny-level and any accompanying warnings).
        diagnostics: Diagnostics,
    },
    /// Batch `id` (0 = unattributable) failed.
    Error {
        /// Correlation id, when it could be read.
        id: u64,
        /// Human-readable failure reason.
        message: String,
    },
}

impl ServerFrame {
    /// Encodes the frame as one line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            ServerFrame::Hello {
                warm_entries,
                parallelism,
                pool,
            } => {
                let mut w = WireWriter::frame("hello");
                w.u64(*warm_entries);
                w.u64(*parallelism);
                pool.write(&mut w);
                w.finish()
            }
            ServerFrame::Busy { active, max } => {
                let mut w = WireWriter::frame("busy");
                w.u64(*active);
                w.u64(*max);
                w.finish()
            }
            ServerFrame::Pong => WireWriter::frame("pong").finish(),
            ServerFrame::Report { id, index, report } => encode_report_frame(*id, *index, report),
            ServerFrame::Done {
                id,
                count,
                cache,
                verify,
                pool,
            } => {
                let mut w = WireWriter::frame("done");
                w.u64(*id);
                w.u64(*count);
                wire::write_cache_stats(&mut w, cache);
                verify.write(&mut w);
                pool.write(&mut w);
                w.finish()
            }
            ServerFrame::Rejected { id, diagnostics } => {
                let mut w = WireWriter::frame("rejected");
                w.u64(*id);
                w.u64(diagnostics.len() as u64);
                for d in diagnostics.iter() {
                    wire::write_diagnostic(&mut w, d);
                }
                w.finish()
            }
            ServerFrame::Error { id, message } => {
                let mut w = WireWriter::frame("error");
                w.u64(*id);
                w.text(message);
                w.finish()
            }
        }
    }

    /// Decodes one server line.
    pub fn decode(line: &str) -> Result<ServerFrame, WireError> {
        let (kind, mut r) = WireReader::frame(line)?;
        let frame = match kind {
            "hello" => ServerFrame::Hello {
                warm_entries: r.u64()?,
                parallelism: r.u64()?,
                pool: PoolStats::read(&mut r)?,
            },
            "busy" => ServerFrame::Busy {
                active: r.u64()?,
                max: r.u64()?,
            },
            "pong" => ServerFrame::Pong,
            "report" => ServerFrame::Report {
                id: r.u64()?,
                index: r.u64()?,
                report: wire::read_report(&mut r)?,
            },
            "done" => ServerFrame::Done {
                id: r.u64()?,
                count: r.u64()?,
                cache: wire::read_cache_stats(&mut r)?,
                verify: VerifyTotals::read(&mut r)?,
                pool: PoolStats::read(&mut r)?,
            },
            "rejected" => {
                let id = r.u64()?;
                let count = r.usize()?;
                let mut diagnostics = Diagnostics::new();
                for _ in 0..count {
                    diagnostics.push(wire::read_diagnostic(&mut r)?);
                }
                ServerFrame::Rejected { id, diagnostics }
            }
            "error" => ServerFrame::Error {
                id: r.u64()?,
                message: r.text()?,
            },
            other => {
                return Err(WireError::Syntax(format!(
                    "unknown server frame kind `{other}`"
                )))
            }
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Borrow-encoding twins of the owning [`ServerFrame`] / [`ClientFrame`]
/// constructors, for the hot paths that already hold a reference: the
/// server's streaming sink encodes each completed report without
/// cloning its residue heaps, and the client encodes a batch without
/// copying the request list.
pub fn encode_report_frame(id: u64, index: u64, report: &Report) -> String {
    let mut w = WireWriter::frame("report");
    w.u64(id);
    w.u64(index);
    wire::write_report(&mut w, report);
    w.finish()
}

/// See [`encode_report_frame`]; the borrow-encoding twin of
/// [`ClientFrame::Analyze`].
pub fn encode_analyze_frame(
    id: u64,
    upload: Option<&ProgramUpload>,
    requests: &[AnalysisRequest],
) -> Result<String, WireError> {
    let mut w = WireWriter::frame("analyze");
    w.u64(id);
    match upload {
        None => w.atom("-"),
        Some(upload) => upload.write(&mut w),
    }
    w.u64(requests.len() as u64);
    for request in requests {
        wire::write_request(&mut w, request)?;
    }
    Ok(w.finish())
}

/// Default cap on one frame's length. A peer that streams bytes without
/// ever sending a newline would otherwise grow the buffer until the
/// process OOMs — this bounds what one connection can pin. Far above
/// any legitimate frame (a full corpus report line is a few hundred
/// KiB; even a generous program upload is single-digit MiB).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// A peer exceeded the frame-length cap without sending a newline.
/// Travels as the payload of an [`InvalidData`](io::ErrorKind::InvalidData)
/// [`io::Error`], so callers can distinguish it from genuinely malformed
/// bytes via [`io::Error::get_ref`] + `downcast_ref::<FrameTooLarge>()`
/// and answer with a typed `error` frame before dropping the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// Bytes buffered when the limit tripped.
    pub buffered: usize,
    /// The configured cap.
    pub limit: usize,
}

impl fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame too large: {} bytes buffered without a newline (limit {})",
            self.buffered, self.limit
        )
    }
}

impl std::error::Error for FrameTooLarge {}

/// Incremental newline-delimited framing over a byte stream: buffers
/// partial reads (a frame may arrive in many TCP segments, or several
/// frames in one) and yields complete lines. A byte searched for the
/// newline once is not searched again, so framing a line costs time
/// linear in its length.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Length of the prefix of `buf` already searched without finding a
    /// newline.
    scanned: usize,
    limit: usize,
}

impl Default for FrameBuffer {
    fn default() -> FrameBuffer {
        FrameBuffer::with_limit(MAX_FRAME_BYTES)
    }
}

impl FrameBuffer {
    /// An empty buffer capped at [`MAX_FRAME_BYTES`].
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// An empty buffer with a custom frame-length cap.
    pub fn with_limit(limit: usize) -> FrameBuffer {
        FrameBuffer {
            buf: Vec::new(),
            scanned: 0,
            limit,
        }
    }

    /// Pops the next complete line, if one is buffered.
    pub fn pop_line(&mut self) -> Option<String> {
        let Some(offset) = self.buf[self.scanned..].iter().position(|b| *b == b'\n') else {
            self.scanned = self.buf.len();
            return None;
        };
        let newline = self.scanned + offset;
        self.scanned = 0;
        let rest = self.buf.split_off(newline + 1);
        let mut line = std::mem::replace(&mut self.buf, rest);
        line.pop(); // the newline
        Some(String::from_utf8_lossy(&line).into_owned())
    }

    /// Reads more bytes from `source` into the buffer. `Ok(true)` means
    /// bytes arrived; `Ok(false)` means clean end of stream. A partial
    /// frame exceeding the cap is an
    /// [`InvalidData`](io::ErrorKind::InvalidData) error carrying a
    /// [`FrameTooLarge`] payload — the peer is either broken or hostile,
    /// and the connection should drop (after a best-effort typed `error`
    /// frame, on the server side).
    pub fn fill(&mut self, source: &mut impl Read) -> io::Result<bool> {
        let mut chunk = [0u8; 8192];
        let n = source.read(&mut chunk)?;
        if n == 0 {
            return Ok(false);
        }
        self.buf.extend_from_slice(&chunk[..n]);
        if self.buf.len() > self.limit && !self.buf[self.scanned..].contains(&b'\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                FrameTooLarge {
                    buffered: self.buf.len(),
                    limit: self.limit,
                },
            ));
        }
        Ok(true)
    }

    /// Whether a partial (incomplete) frame is buffered.
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }
}

#[cfg(test)]
mod golden;

#[cfg(test)]
mod tests {
    use super::*;
    use sling::{InputSpec, ValueSpec};

    fn upload() -> ProgramUpload {
        ProgramUpload {
            program: "struct N { next: N*; }\nfn id(x: N*) -> N* { return x; }".into(),
            predicates: "pred p(x: N*) := emp & x == nil\n  | exists u. x -> N{next: u} * p(u);"
                .into(),
        }
    }

    #[test]
    fn analyze_frame_with_upload_round_trips() {
        let frame = ClientFrame::Analyze {
            id: 42,
            upload: Some(upload()),
            requests: vec![
                sling::AnalysisRequest::new("id").input(InputSpec::seeded(7).arg(ValueSpec::nil()))
            ],
        };
        let line = frame.encode().unwrap();
        match ClientFrame::decode(&line).unwrap() {
            ClientFrame::Analyze {
                id,
                upload: Some(u),
                requests,
            } => {
                assert_eq!(id, 42);
                assert_eq!(u, upload());
                assert_eq!(requests.len(), 1);
            }
            other => panic!("decoded {other:?}"),
        }
        assert_eq!(ClientFrame::salvage_id(&line), 42);
    }

    #[test]
    fn analyze_frame_without_upload_round_trips() {
        let frame = ClientFrame::Analyze {
            id: 1,
            upload: None,
            requests: vec![],
        };
        let line = frame.encode().unwrap();
        assert!(matches!(
            ClientFrame::decode(&line).unwrap(),
            ClientFrame::Analyze { upload: None, .. }
        ));
    }

    #[test]
    fn bad_tenant_tag_is_a_syntax_error() {
        let line = ClientFrame::Analyze {
            id: 3,
            upload: None,
            requests: vec![],
        }
        .encode()
        .unwrap();
        let bad = line.replacen(" - ", " steal ", 1);
        assert!(matches!(
            ClientFrame::decode(&bad),
            Err(WireError::Syntax(_))
        ));
    }

    #[test]
    fn hello_and_done_carry_pool_stats() {
        let pool = PoolStats {
            hits: 5,
            misses: 2,
            evictions: 1,
            resident: 2,
            capacity: 4,
        };
        let hello = ServerFrame::Hello {
            warm_entries: 9,
            parallelism: 3,
            pool,
        }
        .encode();
        match ServerFrame::decode(&hello).unwrap() {
            ServerFrame::Hello { pool: back, .. } => assert_eq!(back, pool),
            other => panic!("decoded {other:?}"),
        }
        let done = ServerFrame::Done {
            id: 7,
            count: 1,
            cache: CacheStats::default(),
            verify: VerifyTotals::default(),
            pool,
        }
        .encode();
        match ServerFrame::decode(&done).unwrap() {
            ServerFrame::Done { pool: back, .. } => assert_eq!(back, pool),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn rejected_frame_round_trips_structured_diagnostics() {
        use sling::{lint_codes, Diagnostic, Severity};
        let mut diagnostics = Diagnostics::new();
        diagnostics.push(
            Diagnostic::new(
                lint_codes::USE_BEFORE_INIT,
                Severity::Deny,
                "variable `y` is used before it is initialized",
            )
            .in_function(sling_logic::Symbol::intern("f"))
            .with_span(sling_logic::Span::new(20, 29)),
        );
        diagnostics.push(
            Diagnostic::new(lint_codes::UNUSED_VAR, Severity::Warning, "never read")
                .with_note("context note"),
        );
        let line = ServerFrame::Rejected {
            id: 11,
            diagnostics: diagnostics.clone(),
        }
        .encode();
        match ServerFrame::decode(&line).unwrap() {
            ServerFrame::Rejected {
                id,
                diagnostics: back,
            } => {
                assert_eq!(id, 11);
                assert_eq!(back, diagnostics);
                assert!(back.has_deny());
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn frame_buffer_pops_lines_and_caps_partials() {
        let mut fb = FrameBuffer::with_limit(16);
        let mut src = io::Cursor::new(b"one\ntwo\n".to_vec());
        assert!(fb.fill(&mut src).unwrap());
        assert_eq!(fb.pop_line().as_deref(), Some("one"));
        assert_eq!(fb.pop_line().as_deref(), Some("two"));
        assert!(fb.pop_line().is_none());
        assert!(!fb.has_partial());

        // A newline-free stream past the limit trips the typed error.
        let mut src = io::Cursor::new(vec![b'x'; 64]);
        let err = loop {
            match fb.fill(&mut src) {
                Ok(true) => continue,
                Ok(false) => panic!("stream ended before the cap tripped"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let too_large = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<FrameTooLarge>())
            .expect("typed FrameTooLarge payload");
        assert_eq!(too_large.limit, 16);
        assert!(too_large.buffered > 16);
    }

    #[test]
    fn frame_buffer_allows_complete_lines_longer_than_a_read() {
        // The cap binds *partial* frames; complete lines under the cap
        // pass even when they span several fills.
        let mut fb = FrameBuffer::with_limit(1 << 20);
        let line = format!("{}\n", "y".repeat(20_000));
        let mut src = io::Cursor::new(line.clone().into_bytes());
        while fb.fill(&mut src).unwrap() {}
        assert_eq!(fb.pop_line().as_deref(), Some(&line[..line.len() - 1]));
    }

    #[test]
    fn framing_a_long_line_is_linear_in_its_length() {
        // 16 MiB arriving 8 KiB per read, a pop tried after every read
        // as the handler loops do. Searching the whole buffer on each
        // pop is quadratic: 2,048 searches of up to 16 MiB took 10.5 s
        // in a release build on 2 cores. Searching only new bytes takes
        // about 0.1 s there, even in a debug build.
        let mut line = vec![b'z'; 16 << 20];
        line.push(b'\n');
        let mut src = io::Cursor::new(line);
        let mut fb = FrameBuffer::new();
        let started = std::time::Instant::now();
        let popped = loop {
            if let Some(popped) = fb.pop_line() {
                break popped;
            }
            assert!(
                fb.fill(&mut src).unwrap(),
                "stream ended before the newline"
            );
        };
        let elapsed = started.elapsed();
        assert_eq!(popped.len(), 16 << 20);
        assert!(!fb.has_partial());
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "framing 16 MiB took {elapsed:?}"
        );
    }
}
