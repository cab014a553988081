//! The corpus workloads: every Table 1 program analyzed by its own
//! engine, one client thread, engines sharing one cache per category.
//!
//! `corpus_cold` clears the caches before every pass; `corpus_warm`
//! builds its engines over category caches loaded from snapshots that an
//! untimed cold pass in a child process wrote.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Instant, UNIX_EPOCH};

use sling::{CheckCache, Engine, Report};
use sling_suite::Category;

use crate::replay::{snapshot_path, Engines, Replay};
use crate::stats::{median, Metric};
use crate::workload::{corpus_engine, corpus_jobs, digest, env_tag, props_found, Digest, Job};
use crate::{Options, Outcome};

/// How many times set-up is repeated; `setup_s` is the median.
const SETUP_REPEATS: usize = 21;

/// Servable programs the traced run serves through a daemon of its own
/// to measure the serving layers on a corpus workload: the fastest ones
/// of the untraced pass, so the cold uploads stay cheap.
const SERVE_SAMPLE: usize = 12;

struct Corpus {
    engines: Vec<Engine>,
    caches: BTreeMap<Category, Arc<CheckCache>>,
}

/// Builds every engine over fresh category caches. With a snapshot
/// directory, the first engine of each (category, environment) pair
/// warm-starts the category cache from that pair's snapshot through
/// `EngineBuilder::cache_path`: a snapshot holds the entries of one
/// environment, and programs of a category may declare different types.
fn setup(jobs: &[Job], tags: &[u64], snapshots: Option<&Path>, workers: usize) -> Corpus {
    let mut caches: BTreeMap<Category, Arc<CheckCache>> = BTreeMap::new();
    let mut loaded: BTreeSet<(Category, u64)> = BTreeSet::new();
    let engines = jobs
        .iter()
        .zip(tags)
        .map(|(job, &tag)| {
            let category = job.bench.category;
            let cache = Arc::clone(caches.entry(category).or_default());
            let snapshot = snapshots
                .filter(|_| loaded.insert((category, tag)))
                .map(|dir| snapshot_path(dir, category, tag));
            corpus_engine(&job.bench, cache, snapshot.as_deref(), workers)
        })
        .collect();
    Corpus { engines, caches }
}

/// One timed pass: `Engine::analyze` per program, in order.
struct Pass {
    wall_s: f64,
    latencies_s: Vec<f64>,
    reports: Vec<Result<Report, String>>,
}

fn timed_pass(corpus: &Corpus, jobs: &[Job]) -> Pass {
    let mut latencies_s = Vec::with_capacity(jobs.len());
    let mut reports = Vec::with_capacity(jobs.len());
    let start = Instant::now();
    for (engine, job) in corpus.engines.iter().zip(jobs) {
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.analyze(&job.request)));
        latencies_s.push(t.elapsed().as_secs_f64());
        reports.push(match outcome {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(e)) => Err(e.to_string()),
            Err(_) => Err("panicked".to_string()),
        });
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        latencies_s,
        reports,
    }
}

/// The untimed cold pass behind `corpus_warm`: analyzes every program
/// over fresh category caches and saves each cache to `dir`. Runs in a
/// child process, so its memory does not count in the parent's peak.
pub fn make_snapshots(dir: &Path, smoke: bool, workers: usize) {
    std::fs::create_dir_all(dir).expect("snapshot directory");
    let jobs = corpus_jobs(0, smoke);
    let tags: Vec<u64> = jobs.iter().map(env_tag).collect();
    let corpus = setup(&jobs, &tags, None, workers);
    let mut saved: BTreeSet<(Category, u64)> = BTreeSet::new();
    for (engine, job) in corpus.engines.iter().zip(&jobs) {
        engine
            .analyze(&job.request)
            .unwrap_or_else(|e| panic!("{}: {e}", job.bench.name));
    }
    for ((engine, job), &tag) in corpus.engines.iter().zip(&jobs).zip(&tags) {
        if saved.insert((job.bench.category, tag)) {
            let path = snapshot_path(dir, job.bench.category, tag);
            engine
                .save_cache_to(&path)
                .unwrap_or_else(|e| panic!("saving {path:?}: {e}"));
        }
    }
}

/// The snapshot directory of `corpus_warm`. One untimed cold pass in a
/// child process writes it; it is then kept under the work directory for
/// as long as the binary stays the same, so later runs spend their time
/// measuring rather than repeating the cold pass. The snapshots do not
/// depend on the seed: the child analyzes in corpus order.
fn snapshots(options: &Options) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let meta = std::fs::metadata(&exe).map_err(|e| e.to_string())?;
    let built = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let kind = if options.smoke { "smoke" } else { "full" };
    let name = format!("snapshots-{kind}-{:x}-{built:x}", meta.len());
    let dir = options.work.join(&name);
    if dir.is_dir() {
        return Ok(dir);
    }
    // Snapshots of an older binary are stale.
    for entry in std::fs::read_dir(&options.work).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let stale = path.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
            n.starts_with(&format!("snapshots-{kind}-")) || n.starts_with("partial-")
        });
        if stale {
            std::fs::remove_dir_all(&path).ok();
        }
    }
    let partial = options.work.join(format!("partial-{}", std::process::id()));
    let mut command = std::process::Command::new(exe);
    command.arg("--make-snapshots").arg(&partial);
    if options.smoke {
        command.arg("--smoke");
    }
    let status = command
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| e.to_string())?;
    if !status.success() {
        std::fs::remove_dir_all(&partial).ok();
        return Err(format!("snapshot pass exited with {status}"));
    }
    std::fs::rename(&partial, &dir).map_err(|e| e.to_string())?;
    Ok(dir)
}

pub fn run(warm: bool, options: &Options) -> Result<Outcome, String> {
    let jobs = corpus_jobs(options.seed, options.smoke);
    let tags: Vec<u64> = jobs.iter().map(env_tag).collect();
    // On warm caches a request is a few milliseconds of lookups: a fan-out
    // spends them spawning a thread and waiting for a second core, so the
    // latency would follow the shared machine's load rather than the
    // program. Warm engines run their locations on the calling thread;
    // corpus_cold keeps the nproc-way fan-out, where it pays off.
    let workers = if warm { 1 } else { options.workers };
    let snapshots = if warm {
        Some(snapshots(options)?)
    } else {
        None
    };
    let snapshot_dir = snapshots.as_deref();

    // Half the set-up repeats run before the timed passes and half after,
    // so their median samples the machine's speed over the whole run
    // rather than one instant.
    let repeats = if options.smoke { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut corpus = None;
    for _ in 0..repeats - repeats / 2 {
        drop(corpus.take());
        let t = Instant::now();
        corpus = Some(setup(&jobs, &tags, snapshot_dir, workers));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let corpus = corpus.expect("at least one set-up");

    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut latencies = Vec::new();
    let mut fastest = vec![f64::INFINITY; jobs.len()];
    let mut reference: Vec<Digest> = Vec::new();
    let mut props = 0;
    let (mut hits, mut misses) = (0, 0);
    let start = Instant::now();
    loop {
        if !warm && !walls.is_empty() {
            for cache in corpus.caches.values() {
                cache.clear();
            }
        }
        let pass = timed_pass(&corpus, &jobs);
        walls.push(pass.wall_s);
        for (best, &latency) in fastest.iter_mut().zip(&pass.latencies_s) {
            *best = best.min(latency);
        }
        latencies.extend(pass.latencies_s);
        out.attempted += jobs.len() as u64;
        let keep = walls.len() == 1;
        for (i, outcome) in pass.reports.into_iter().enumerate() {
            let name = jobs[i].bench.name;
            let report = outcome.map_err(|e| out.fail(format!("{name}: {e}"))).ok();
            if let Some(report) = &report {
                hits += report.cache.hits;
                misses += report.cache.misses;
            }
            if keep {
                reference.push(report.as_ref().map(digest).unwrap_or_default());
                props += report
                    .as_ref()
                    .map_or(0, |r| props_found(&jobs[i].bench, r));
            } else if report.is_some_and(|r| digest(&r) != reference[i]) {
                out.fail(format!("{name}: formulas differ from the first pass"));
            }
        }
        if options.smoke || start.elapsed().as_secs_f64() >= options.seconds {
            break;
        }
    }

    drop(corpus);
    for _ in 0..repeats / 2 {
        let t = Instant::now();
        let spare = setup(&jobs, &tags, snapshot_dir, workers);
        setup_s.push(t.elapsed().as_secs_f64());
        drop(spare);
    }
    // A pass is sequential, so its wall time is the sum of its requests'
    // latencies; summing each request's fastest keeps the pass time free
    // of the interference the latency metrics leave out.
    let wall_s: f64 = fastest.iter().sum();
    out.table.push(format!(
        "median pass wall = {:.4} s over {} passes",
        median(&walls),
        walls.len()
    ));
    out.finish_timed(
        Metric::new("wall_s", wall_s, "s", walls.len()),
        &latencies,
        &fastest,
        &setup_s,
        props,
        &jobs,
    );
    out.table.push(format!(
        "cache over the timed passes: {hits} hits, {misses} misses"
    ));

    if options.trace {
        let mut replay = Replay::new(&options.work, workers);
        replay.run(
            &jobs,
            &reference,
            Engines::Corpus {
                snapshots: snapshot_dir,
            },
        );
        let mut servable: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].servable()).collect();
        // `latencies` starts with the first pass, in request order.
        servable.sort_by(|&a, &b| latencies[a].total_cmp(&latencies[b]));
        servable.truncate(SERVE_SAMPLE);
        replay
            .serve_sample(&jobs, &servable, &reference)
            .map_err(|e| format!("serving the sample: {e}"))?;
        out.finish_replay(&replay, &jobs, options, wall_s);
    }
    Ok(out)
}
