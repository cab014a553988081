//! `perfbench` — the SLING workspace's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus_cold|corpus_warm|served_warm \
//!     --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Prints a human-readable table (every metric by name, with its unit and
//! sample count, plus the run environment) and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured untraced; with `--trace 1`
//! the run also replays the workload through each layer's public entry
//! points under in-memory spans and reports the per-layer metrics
//! instead. `--smoke` runs a tiny subset once, for the benchmark's own
//! tests. See `README.md` beside this crate for the workloads, metrics
//! and the layer-to-metric map.

mod corpus;
mod replay;
mod served;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use stats::{environment, median, peak_rss_mb, percentile, result_line, Metric};
use workload::{Job, Workload};

/// Environment variables that would change what the program does behind
/// the benchmark's back.
const FORBIDDEN_ENV: &[&str] = &["SLING_PARALLELISM", "SLING_VERIFY", "SLING_EXECUTOR"];

/// Invariants the uncached trace-soundness re-check already rejects on
/// the unmodified program, per corpus program. They are reported on every
/// traced run but fail no request; any other rejection does.
const KNOWN_UNSOUND: &[(&str, usize)] = &[("cyclist/composite4", 1), ("glib_sll/sortMerge", 4)];

/// Parsed command line.
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Client threads and engine worker budget.
    pub workers: usize,
    /// Scratch directory for snapshots and span files, inside the crate.
    pub work: PathBuf,
}

/// What a workload run measured and found.
#[derive(Default)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures not tied to one timed request.
    pub problems: Vec<String>,
    /// Failed requests, by program name.
    pub failures: Vec<String>,
    /// Extra human-readable lines.
    pub table: Vec<String>,
}

impl Outcome {
    /// Counts one failed request.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Records the end-to-end metrics of the timed passes (or laps) and
    /// prints the figures that are not metrics: p99 latency once a run
    /// holds 1000 requests, and the documented-property total.
    ///
    /// `latencies` holds every request of every pass; `fastest[i]` is
    /// request `i`'s fastest of them, and the latency percentiles are
    /// taken over those. On a shared machine a neighbour's load only ever
    /// adds time, and it comes in phases longer than a pass, so the
    /// fastest time is the one that repeats from run to run.
    pub fn finish_timed(
        &mut self,
        wall_s: Metric,
        latencies: &[f64],
        fastest: &[f64],
        setup_s: &[f64],
        props: usize,
        jobs: &[Job],
    ) {
        self.table.push(if latencies.len() >= 1000 {
            format!(
                "latency_p99_ms = {:.4} ms (n={})",
                percentile(latencies, 0.99) * 1e3,
                latencies.len()
            )
        } else {
            format!("latency_p99_ms = n/a (n={} < 1000)", latencies.len())
        });
        let documented: usize = jobs.iter().map(|j| j.bench.properties.len()).sum();
        self.table
            .push(format!("props_found = {props} of {documented} documented"));
        self.end_to_end = vec![
            wall_s,
            Metric::new(
                "latency_p50_ms",
                percentile(fastest, 0.5) * 1e3,
                "ms",
                fastest.len(),
            ),
            Metric::new(
                "latency_p90_ms",
                percentile(fastest, 0.9) * 1e3,
                "ms",
                fastest.len(),
            ),
            Metric::new("setup_s", median(setup_s), "s", setup_s.len()),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1),
            Metric::new("props_found", props as f64, "count", jobs.len()),
        ];
    }

    /// Folds a finished traced replay into the outcome.
    pub fn finish_replay(
        &mut self,
        replay: &replay::Replay<'_>,
        jobs: &[Job],
        options: &Options,
        untraced_wall_s: f64,
    ) {
        self.per_layer = replay.metrics(jobs.len(), untraced_wall_s);
        self.table.extend(replay.summary());
        for &i in &replay.mismatched {
            self.problems.push(format!(
                "{}: traced replay differs from the untraced analysis",
                jobs[i].bench.name
            ));
        }
        let mut unsound: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (name, line) in &replay.violations {
            unsound.entry(name).or_default().push(line);
        }
        let total: usize = unsound.values().map(Vec::len).sum();
        let known: usize = KNOWN_UNSOUND.iter().map(|(_, n)| n).sum();
        self.table.push(format!(
            "soundness.violations = {total} (known at the seed: {known})"
        ));
        for (name, lines) in unsound {
            let known = KNOWN_UNSOUND
                .iter()
                .find(|(known, _)| *known == name)
                .map_or(0, |(_, n)| *n);
            for line in &lines {
                self.table.push(format!("unsound {name} at {line}"));
            }
            if lines.len() > known {
                self.fail(format!(
                    "{name}: {} invariants rejected by an uncached check ({known} known at the seed)",
                    lines.len()
                ));
            }
        }
        let path = options.work.join(format!(
            "spans-{}-seed{}.jsonl",
            options.workload.name(),
            options.seed
        ));
        let header = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"env\": {}}}",
            options.workload.name(),
            options.seed,
            stats::json_str(&environment())
        );
        match replay.write_spans(&path, &header) {
            Ok(()) => self
                .table
                .push(format!("spans written to {}", path.display())),
            Err(e) => self.problems.push(format!("writing spans: {e}")),
        }
    }
}

fn usage() -> String {
    "usage: perfbench --workload corpus_cold|corpus_warm|served_warm --seed N \
     --seconds S --trace 0|1 [--smoke]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        smoke,
        workers: stats::nproc(),
        work: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers = stats::nproc();
    if args.first().map(String::as_str) == Some("--make-snapshots") {
        let dir = PathBuf::from(args.get(1).expect("--make-snapshots DIR"));
        corpus::make_snapshots(&dir, args.iter().any(|a| a == "--smoke"), workers);
        return ExitCode::SUCCESS;
    }
    let set: Vec<&str> = FORBIDDEN_ENV
        .iter()
        .copied()
        .filter(|name| std::env::var_os(name).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: unset {} first: the benchmark passes the program only its generated inputs",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&options.work) {
        eprintln!("perfbench: creating {}: {e}", options.work.display());
        return ExitCode::from(1);
    }

    let outcome = match options.workload {
        Workload::CorpusCold => corpus::run(false, &options),
        Workload::CorpusWarm => corpus::run(true, &options),
        Workload::ServedWarm => served::run(&options),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", options.workload.name());
            return ExitCode::from(1);
        }
    };

    println!(
        "workload={} seed={} seconds={} trace={} smoke={} {}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace),
        options.smoke,
        environment()
    );
    let metrics = if options.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in metrics {
        println!(
            "metric {:<22} = {:>14.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    let rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "metric {:<22} = {:>14.6} {:<6} (n={})",
        "fail_rate", rate, "ratio", outcome.attempted
    );
    for line in &outcome.table {
        println!("  {line}");
    }
    for failure in &outcome.failures {
        println!("FAILED {failure}");
    }
    for problem in &outcome.problems {
        println!("CHECK {problem}");
    }
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    println!(
        "{}",
        result_line(correct, outcome.attempted.max(1), outcome.failed, metrics)
    );
    ExitCode::SUCCESS
}
