//! The served workload: an uploads-only daemon on loopback, in this
//! process. Set-up boots it and uploads every tenant once (the cold
//! served path) plus one warm lap, over one connection per core; timed
//! laps then re-upload and analyze every tenant, one request per batch,
//! over the first connection alone, so that a request's latency is its
//! own and not that of the request beside it on the other connection.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use sling::Report;
use sling_serve::{Client, EnginePool, PoolSettings, ProgramUpload, ServeOptions, Service};

use crate::replay::{Engines, Replay};
use crate::stats::{median, Metric};
use crate::workload::{digest, props_found, served_jobs, Digest, Job};
use crate::{Options, Outcome};

/// One closed-loop lap: every connection takes the next tenant in
/// order until none is left.
struct Lap {
    wall_s: f64,
    /// (tenant index, send-to-done latency, report or error)
    results: Vec<(usize, f64, Result<Report, String>)>,
}

fn lap(clients: &mut [Client], jobs: &[Job], uploads: &[ProgramUpload]) -> Lap {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let results = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            return out;
                        }
                        let t = Instant::now();
                        let batch = std::slice::from_ref(&jobs[i].request);
                        let result = client.analyze_all_uploaded(&uploads[i], batch);
                        let latency = t.elapsed().as_secs_f64();
                        let report = result
                            .map_err(|e| e.to_string())
                            .and_then(|b| b.reports.into_iter().next().ok_or("no report".into()));
                        out.push((i, latency, report));
                    }
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect()
    });
    Lap {
        wall_s: start.elapsed().as_secs_f64(),
        results,
    }
}

pub fn run(options: &Options) -> Result<Outcome, String> {
    let jobs = served_jobs(options.seed, options.smoke);
    let uploads: Vec<ProgramUpload> = jobs.iter().map(Job::upload).collect();
    let workers = options.workers;
    let mut out = Outcome::default();

    let setup = Instant::now();
    // A warm request is a few milliseconds of lookups, which a fan-out
    // spends on a thread spawn and on waiting for a second core (see
    // corpus_warm in README.md); set-up's connections keep the cores busy.
    let pool = EnginePool::new(
        None,
        jobs.len(),
        PoolSettings {
            parallelism: Some(1),
            ..PoolSettings::default()
        },
    );
    let service = Service::bind_pool(pool, "127.0.0.1:0", ServeOptions::default())
        .map_err(|e| format!("binding the daemon: {e}"))?;
    let mut clients = (0..workers)
        .map(|_| Client::connect(service.local_addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connecting: {e}"))?;
    let cold = lap(&mut clients, &jobs, &uploads);
    let warmup = lap(&mut clients, &jobs, &uploads);
    let setup_s = setup.elapsed().as_secs_f64();
    out.table.push(format!(
        "setup: cold upload lap {:.3} s, warm-up lap {:.3} s",
        cold.wall_s, warmup.wall_s
    ));

    // The in-process answer of every tenant on its resolved, warm engine:
    // what each served report must equal, formula for formula.
    let mut reference: Vec<Digest> = Vec::with_capacity(jobs.len());
    for (job, upload) in jobs.iter().zip(&uploads) {
        let report = service
            .pool()
            .resolve(Some(upload))
            .map_err(|e| e.to_string())
            .and_then(|engine| engine.analyze(&job.request).map_err(|e| e.to_string()));
        match report {
            Ok(report) => reference.push(digest(&report)),
            Err(e) => {
                out.problems
                    .push(format!("{}: in-process analysis: {e}", job.bench.name));
                reference.push(Vec::new());
            }
        }
    }
    for (i, _, result) in cold.results.iter().chain(&warmup.results) {
        if !matches!(result, Ok(r) if digest(r) == reference[*i]) {
            out.problems.push(format!(
                "{}: set-up lap answer differs",
                jobs[*i].bench.name
            ));
        }
    }

    let mut walls = Vec::new();
    let mut latencies = Vec::new();
    let mut fastest = vec![f64::INFINITY; jobs.len()];
    let mut props = None;
    let start = Instant::now();
    loop {
        let lap = lap(&mut clients[..1], &jobs, &uploads);
        walls.push(lap.wall_s);
        out.attempted += lap.results.len() as u64;
        let mut found = 0;
        for (i, latency, result) in lap.results {
            latencies.push(latency);
            fastest[i] = fastest[i].min(latency);
            let name = jobs[i].bench.name;
            match result {
                Err(e) => out.fail(format!("{name}: {e}")),
                Ok(report) if digest(&report) != reference[i] => {
                    out.fail(format!("{name}: served formulas differ from in-process"))
                }
                Ok(report) => found += props_found(&jobs[i].bench, &report),
            }
        }
        props.get_or_insert(found);
        if options.smoke || start.elapsed().as_secs_f64() >= options.seconds {
            break;
        }
    }
    let props = props.unwrap_or(0);
    let pool = clients[0].pool_stats();
    out.table.push(format!(
        "pool: hits={} misses={} evictions={} resident={} capacity={}",
        pool.hits, pool.misses, pool.evictions, pool.resident, pool.capacity
    ));
    // A timed lap is sequential, as a corpus pass is: its wall time is
    // the sum of its requests' latencies, here each request's fastest.
    let wall_s: f64 = fastest.iter().sum();
    out.table.push(format!(
        "median lap wall = {:.4} s over {} laps",
        median(&walls),
        walls.len()
    ));
    out.finish_timed(
        Metric::new("wall_s", wall_s, "s", walls.len()),
        &latencies,
        &fastest,
        &[setup_s],
        props,
        &jobs,
    );
    drop(clients);

    if options.trace {
        let mut replay = Replay::new(&options.work, workers);
        replay.run(&jobs, &reference, Engines::Pool(service.pool()));
        let all: Vec<usize> = (0..jobs.len()).collect();
        replay
            .serve_layer(&jobs, &all, &reference, &service)
            .map_err(|e| format!("serve layer: {e}"))?;
        out.finish_replay(&replay, &jobs, options, wall_s);
    }
    service
        .shutdown()
        .map_err(|e| format!("shutting the daemon down: {e}"))?;
    Ok(out)
}
