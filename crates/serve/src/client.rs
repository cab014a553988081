//! A blocking client for the serve protocol.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use sling::{AnalysisRequest, BatchReport, Diagnostics, Report};

use crate::backoff::{jitter_seed, retry_delay};
use crate::proto::{
    ClientFrame, FrameBuffer, PoolStats, ProgramUpload, ServerFrame, VerifyTotals, WireError,
};

/// Why a served analysis failed on the client side.
#[derive(Debug)]
pub enum ServeError {
    /// The connection failed or dropped.
    Io(io::Error),
    /// A frame could not be encoded or decoded.
    Wire(WireError),
    /// The server answered out of protocol (wrong id, missing reports,
    /// unexpected frame).
    Protocol(String),
    /// The server reported a failure (`error` frame).
    Remote(String),
    /// The uploaded program failed the server's static diagnostics gate
    /// (`rejected` frame): the structured findings travel typed, so the
    /// caller can act on lint codes and spans.
    Rejected(Diagnostics),
    /// The server is at its connection bound (`busy` frame) and closed
    /// the connection; retrying later — [`Client::connect_retry`] does —
    /// is the expected recovery.
    Busy {
        /// Connections the server was handling when it turned this one
        /// away.
        active: u64,
        /// The server's configured connection bound.
        max: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve connection error: {e}"),
            ServeError::Wire(e) => write!(f, "serve frame error: {e}"),
            ServeError::Protocol(why) => write!(f, "serve protocol violation: {why}"),
            ServeError::Remote(why) => write!(f, "server rejected the batch: {why}"),
            ServeError::Rejected(diags) => write!(
                f,
                "server rejected the uploaded program ({} finding{}):\n{diags}",
                diags.len(),
                if diags.len() == 1 { "" } else { "s" },
            ),
            ServeError::Busy { active, max } => write!(
                f,
                "server is at its connection bound ({active}/{max}); retry later"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> ServeError {
        ServeError::Wire(e)
    }
}

/// A blocking connection to a [`Service`](crate::Service) (or a
/// standalone `sling-serve` process).
///
/// One client holds one connection; batches are correlated by id, so a
/// client can be reused for any number of sequential
/// [`Client::analyze_all`] calls. The server's boot banner is read at
/// connect time — [`Client::warm_entries`] reports how warm the serving
/// engine started.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    frames: FrameBuffer,
    warm_entries: u64,
    parallelism: u64,
    next_id: u64,
    verify_totals: VerifyTotals,
    pool_stats: PoolStats,
}

impl Client {
    /// Connects and reads the server's `hello` banner.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut client = Client {
            stream,
            frames: FrameBuffer::new(),
            warm_entries: 0,
            parallelism: 0,
            next_id: 1,
            verify_totals: VerifyTotals::default(),
            pool_stats: PoolStats::default(),
        };
        match client.read_frame()? {
            ServerFrame::Hello {
                warm_entries,
                parallelism,
                pool,
            } => {
                client.warm_entries = warm_entries;
                client.parallelism = parallelism;
                client.pool_stats = pool;
                Ok(client)
            }
            ServerFrame::Busy { active, max } => Err(ServeError::Busy { active, max }),
            other => Err(ServeError::Protocol(format!(
                "expected a hello banner, got {other:?}"
            ))),
        }
    }

    /// [`Client::connect`] with retries until `deadline` elapses —
    /// for drivers racing a just-booted server process, and the
    /// expected recovery from a [`ServeError::Busy`] turn-away (a slot
    /// usually frees within the deadline). Retries back off
    /// exponentially with deterministic jitter — 10ms base doubling to
    /// a 1s cap, each sleep drawn from the cap's upper half — clamped
    /// to the remaining deadline so the last sleep never overshoots it.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        deadline: Duration,
    ) -> Result<Client, ServeError> {
        let start = Instant::now();
        let seed = jitter_seed();
        let mut attempt = 0u32;
        loop {
            match Client::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    let elapsed = start.elapsed();
                    if elapsed >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(retry_delay(attempt, seed).min(deadline - elapsed));
                    attempt = attempt.saturating_add(1);
                }
            }
        }
    }

    /// Entries the serving engine restored from its cache snapshot at
    /// boot (from the `hello` banner).
    pub fn warm_entries(&self) -> u64 {
        self.warm_entries
    }

    /// The serving engine's worker budget (from the `hello` banner).
    pub fn parallelism(&self) -> u64 {
        self.parallelism
    }

    /// Verification-grade totals from the last completed batch's `done`
    /// epilogue — all zero before the first batch, and when the serving
    /// engine runs without the verification post-pass.
    pub fn verify_totals(&self) -> VerifyTotals {
        self.verify_totals
    }

    /// Engine-pool counters from the most recent `hello` banner or
    /// `done` epilogue — how many batches hit a resident engine, built
    /// one, and how many engines were evicted to stay under the cap.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool_stats
    }

    /// Round-trips a liveness probe.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        self.send(&ClientFrame::Ping)?;
        match self.read_frame()? {
            ServerFrame::Pong => Ok(()),
            other => Err(ServeError::Protocol(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Serves a batch remotely: sends one `analyze` frame and collects
    /// the streamed reports into a [`BatchReport`] in request order —
    /// the wire mirror of [`sling::Engine::analyze_all`]. The batch
    /// runs against the daemon's default tenant.
    pub fn analyze_all(&mut self, requests: &[AnalysisRequest]) -> Result<BatchReport, ServeError> {
        self.analyze_all_with(requests, |_, _| {})
    }

    /// [`Client::analyze_all`] against an uploaded program: the server
    /// resolves `upload` in its engine pool (building on first sight,
    /// reusing after), then serves the batch against that engine. A
    /// static-diagnostics rejection comes back typed as
    /// [`ServeError::Rejected`] with the structured findings; other
    /// build failures — parse, typecheck — as [`ServeError::Remote`].
    /// Either way the connection stays usable.
    pub fn analyze_all_uploaded(
        &mut self,
        upload: &ProgramUpload,
        requests: &[AnalysisRequest],
    ) -> Result<BatchReport, ServeError> {
        self.analyze_all_uploaded_with(upload, requests, |_, _| {})
    }

    /// [`Client::analyze_all_uploaded`] with a streaming observer.
    pub fn analyze_all_uploaded_with(
        &mut self,
        upload: &ProgramUpload,
        requests: &[AnalysisRequest],
        sink: impl FnMut(usize, &Report),
    ) -> Result<BatchReport, ServeError> {
        self.run_batch(Some(upload), requests, sink)
    }

    /// [`Client::analyze_all`] with a streaming observer: `sink` sees
    /// each report as its frame arrives (request order), before the
    /// batch finishes — the wire mirror of
    /// [`sling::Engine::analyze_all_with`].
    pub fn analyze_all_with(
        &mut self,
        requests: &[AnalysisRequest],
        sink: impl FnMut(usize, &Report),
    ) -> Result<BatchReport, ServeError> {
        self.run_batch(None, requests, sink)
    }

    fn run_batch(
        &mut self,
        upload: Option<&ProgramUpload>,
        requests: &[AnalysisRequest],
        mut sink: impl FnMut(usize, &Report),
    ) -> Result<BatchReport, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send_line(crate::proto::encode_analyze_frame(id, upload, requests)?)?;

        let mut slots: Vec<Option<Report>> = (0..requests.len()).map(|_| None).collect();
        loop {
            match self.read_frame()? {
                ServerFrame::Report {
                    id: got,
                    index,
                    report,
                } => {
                    if got != id {
                        return Err(ServeError::Protocol(format!(
                            "report for batch {got} while awaiting batch {id}"
                        )));
                    }
                    let batch_len = slots.len();
                    let slot = slots.get_mut(index as usize).ok_or_else(|| {
                        ServeError::Protocol(format!(
                            "report index {index} out of range for a {batch_len}-request batch"
                        ))
                    })?;
                    if slot.is_some() {
                        return Err(ServeError::Protocol(format!(
                            "duplicate report for request {index}"
                        )));
                    }
                    sink(index as usize, &report);
                    *slot = Some(report);
                }
                ServerFrame::Done {
                    id: got,
                    count,
                    cache,
                    verify,
                    pool,
                } => {
                    if got != id {
                        return Err(ServeError::Protocol(format!(
                            "done for batch {got} while awaiting batch {id}"
                        )));
                    }
                    let reports: Vec<Report> = slots
                        .into_iter()
                        .enumerate()
                        .map(|(index, slot)| {
                            slot.ok_or_else(|| {
                                ServeError::Protocol(format!(
                                    "batch finished without a report for request {index}"
                                ))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    if count != reports.len() as u64 {
                        return Err(ServeError::Protocol(format!(
                            "done claims {count} reports, {} streamed",
                            reports.len()
                        )));
                    }
                    self.verify_totals = verify;
                    self.pool_stats = pool;
                    return Ok(BatchReport { reports, cache });
                }
                ServerFrame::Rejected {
                    id: got,
                    diagnostics,
                } if got == id => {
                    return Err(ServeError::Rejected(diagnostics));
                }
                ServerFrame::Error { id: got, message } if got == id || got == 0 => {
                    return Err(ServeError::Remote(message));
                }
                other => {
                    return Err(ServeError::Protocol(format!(
                        "unexpected frame mid-batch: {other:?}"
                    )));
                }
            }
        }
    }

    fn send(&mut self, frame: &ClientFrame) -> Result<(), ServeError> {
        let line = frame.encode()?;
        self.send_line(line)
    }

    fn send_line(&mut self, mut line: String) -> Result<(), ServeError> {
        use std::io::Write as _;
        line.push('\n');
        self.stream.write_all(line.as_bytes())?;
        Ok(())
    }

    fn read_frame(&mut self) -> Result<ServerFrame, ServeError> {
        loop {
            if let Some(line) = self.frames.pop_line() {
                if line.trim().is_empty() {
                    continue;
                }
                return Ok(ServerFrame::decode(&line)?);
            }
            if !self.frames.fill(&mut self.stream)? {
                return Err(ServeError::Protocol(
                    "server closed the connection mid-conversation".into(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backoff::{RETRY_BASE, RETRY_CAP};

    #[test]
    fn connect_retry_backoff_is_total_at_the_saturated_attempt_counter() {
        // connect_retry grows `attempt` with saturating_add, so a long
        // deadline pins it at u32::MAX; the schedule used to compute
        // `attempt + 1` in u32 there and panic in debug builds. The
        // schedule must stay a plain capped draw.
        let delay = retry_delay(u32::MAX, jitter_seed());
        assert!(delay >= RETRY_CAP / 2 && delay <= RETRY_CAP);
        // And the prompt first retry still holds.
        assert!(retry_delay(0, 1) <= RETRY_BASE);
    }
}
