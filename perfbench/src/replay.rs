//! The traced replay: every request of a workload rebuilt from the
//! layers' public entry points, one span per layer call, and the
//! per-layer metrics computed from those spans.
//!
//! The replay runs sequentially — one location after another — while
//! the timed run fans each request's locations out over the engine's
//! workers, so its counts are exact and its times are single-threaded.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;
use std::sync::Arc;

use sling::{
    analyze_program, collect_models, persist, validate_frame, AnalysisSettings, CheckCache,
    Compiler, Engine, EnvProfile, LocationAnalysis, Report, RunMetrics, SlingConfig,
};
use sling_checker::CheckCtx;
use sling_lang::{check_program, parse_program, Location, Snapshot};
use sling_logic::SymHeap;
use sling_models::StackHeapModel;
use sling_serve::{fingerprint, proto, Client, EnginePool, PoolSettings, ServeOptions, Service};
use sling_suite::{predicates, Category};

use crate::stats::{median, percentile, Metric};
use crate::trace::Recorder;
use crate::workload::{digest, Digest, Job};

/// The models a location's inference used: its snapshots' models,
/// deduplicated and capped exactly as the engine selects them.
fn selected_models<'s>(engine: &Engine, snaps: &[&'s Snapshot]) -> Vec<&'s StackHeapModel> {
    let config = engine.config();
    let mut seen: HashSet<&StackHeapModel> = HashSet::new();
    let mut models = Vec::new();
    for snap in snaps {
        if config.dedupe_models && !seen.insert(&snap.model) {
            continue;
        }
        models.push(&snap.model);
        if config.max_models_per_location > 0 && models.len() >= config.max_models_per_location {
            break;
        }
    }
    models
}

/// Re-collects a request's models through `collect_models`, grouped by
/// location.
fn recollect(engine: &Engine, job: &Job) -> sling::Collected {
    let config = engine.config();
    collect_models(
        engine.program(),
        engine.compiled(),
        job.request.target,
        &job.request.inputs,
        config.vm,
        config.trace,
        config.executor,
    )
}

/// Every (model, non-spurious invariant) pair of a report.
fn pairs<'r>(
    engine: &Engine,
    report: &'r Report,
    by_loc: &BTreeMap<Location, Vec<&'r Snapshot>>,
) -> Vec<(&'r StackHeapModel, &'r SymHeap, Location)> {
    let mut out = Vec::new();
    for analysis in &report.locations {
        let Some(snaps) = by_loc.get(&analysis.location) else {
            continue;
        };
        let models = selected_models(engine, snaps);
        for inv in analysis.invariants.iter().filter(|inv| !inv.spurious) {
            out.extend(models.iter().map(|m| (*m, &inv.formula, analysis.location)));
        }
    }
    out
}

/// How the replay obtains the engine that answers a request.
pub enum Engines<'a> {
    /// Corpus workloads: an engine per program over one cache per
    /// category, cold, or loaded from the category snapshots in the dir.
    Corpus { snapshots: Option<&'a Path> },
    /// The served workload: the daemon pool's resident, warm engines.
    Pool(&'a EnginePool),
}

/// The lookup layer times every this-many-th (model, invariant) pair:
/// warming the lookup cache costs a second search per pair timed.
const LOOKUP_STRIDE: usize = 8;

/// Path of the snapshot of one category cache's entries under one
/// environment.
pub fn snapshot_path(dir: &Path, category: Category, env_tag: u64) -> std::path::PathBuf {
    dir.join(format!("{category:?}-{env_tag:016x}.snap"))
}

/// Counters the replay accumulates beside its spans.
#[derive(Debug, Default)]
struct Counts {
    runs: usize,
    snapshots: usize,
    hits: u64,
    misses: u64,
    wire_bytes: usize,
    wire_requests: usize,
    persist_bytes: u64,
    persist_entries: u64,
    cache_entries: u64,
    cache_bytes: u64,
}

/// The served layer's figures.
#[derive(Debug, Default)]
struct ServeLayer {
    overheads_s: Vec<f64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// One traced replay over a workload's requests.
pub struct Replay<'a> {
    rec: Recorder,
    counts: Counts,
    serve: ServeLayer,
    /// Requests whose replayed formulas differ from the untraced run.
    pub mismatched: BTreeSet<usize>,
    /// Trace-soundness violations: (program, "location: invariant")
    /// for each invariant an uncached check rejected.
    pub violations: Vec<(&'static str, String)>,
    /// Separate cache for the lookup layer, so the engines' caches keep
    /// exactly what inference put there.
    pair_cache: CheckCache,
    workers: usize,
    work: &'a Path,
}

impl<'a> Replay<'a> {
    pub fn new(work: &'a Path, workers: usize) -> Replay<'a> {
        Replay {
            rec: Recorder::new(),
            counts: Counts::default(),
            serve: ServeLayer::default(),
            mismatched: BTreeSet::new(),
            violations: Vec::new(),
            pair_cache: CheckCache::new(),
            workers,
            work,
        }
    }

    /// Replays every request; `reference[i]` is the untraced run's digest
    /// of request `i`.
    pub fn run(&mut self, jobs: &[Job], reference: &[Digest], engines: Engines<'_>) {
        let mut caches: BTreeMap<Category, Arc<CheckCache>> = BTreeMap::new();
        // One engine per distinct cache environment: what a snapshot holds.
        let mut per_env: BTreeMap<(usize, u64), Arc<Engine>> = BTreeMap::new();
        for (i, job) in jobs.iter().enumerate() {
            self.rec.set_request(i as u32);
            let request = self.rec.begin("request");
            let built = self.build_layers(job, &engines, &mut caches);
            let profile = EnvProfile::new(built.types(), built.preds());
            let (engine, owner) = match &engines {
                Engines::Corpus { snapshots } => {
                    let category = job.bench.category;
                    let key = (category as usize, profile.env_tag());
                    if let (false, Some(dir)) = (per_env.contains_key(&key), snapshots) {
                        // The warm-start load `cache_path` performs at
                        // build, here into the category's shared cache.
                        let path = snapshot_path(dir, category, profile.env_tag());
                        let cache = &caches[&category];
                        self.rec
                            .span("setup.load", || persist::load(cache, &profile, &path))
                            .unwrap_or_else(|e| panic!("snapshot {path:?}: {e}"));
                    }
                    (Arc::new(built), category as usize)
                }
                Engines::Pool(pool) => {
                    let upload = job.upload();
                    let engine = self
                        .rec
                        .span("pool.resolve", || pool.resolve(Some(&upload)))
                        .unwrap_or_else(|e| panic!("{}: {e}", job.bench.name));
                    // Every tenant owns its cache.
                    (engine, Category::all().len() + i)
                }
            };
            per_env.insert((owner, profile.env_tag()), Arc::clone(&engine));
            self.replay_request(i, job, &engine, &reference[i]);
            self.rec.end(request);
        }
        // Cache sizes once per cache; persistence once per environment.
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        for (&(owner, _), engine) in &per_env {
            if seen.insert(owner) {
                let stats = engine.cache_stats();
                self.counts.cache_entries += stats.entries;
                self.counts.cache_bytes += stats.resident_bytes;
            }
        }
        let engines: Vec<Arc<Engine>> = per_env.into_values().collect();
        self.persist_round_trip(&engines);
    }

    /// Parse, typecheck, lint, compile and engine build of one request's
    /// program, each in its own span. Corpus engines share their
    /// category's cache; served engines are built as the daemon's pool
    /// builds them (lint gate on) and then answered by the pool's
    /// resident engine instead.
    fn build_layers(
        &mut self,
        job: &Job,
        engines: &Engines<'_>,
        caches: &mut BTreeMap<Category, Arc<CheckCache>>,
    ) -> Engine {
        let rec = &mut self.rec;
        let name = job.bench.name;
        let program = rec
            .span("build.parse", || parse_program(job.bench.source))
            .unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
        rec.span("build.typecheck", || check_program(&program))
            .unwrap_or_else(|e| panic!("{name}: type error: {e}"));
        let settings = AnalysisSettings::default();
        rec.span("build.lint", || analyze_program(&program, &settings));
        rec.span("build.compile", || Compiler::compile(&program));
        let builder = Engine::builder()
            .program(program)
            .pred_env(predicates::pred_env(job.bench.category))
            .config(SlingConfig::default())
            .parallelism(self.workers);
        let builder = match engines {
            Engines::Corpus { .. } => {
                let cache = caches.entry(job.bench.category).or_default();
                builder.shared_cache(Arc::clone(cache))
            }
            Engines::Pool(_) => builder.static_analysis(settings),
        };
        rec.span("build.engine", || builder.build())
            .unwrap_or_else(|e| panic!("{name}: engine build error: {e}"))
    }

    fn replay_request(&mut self, index: usize, job: &Job, engine: &Engine, reference: &Digest) {
        let rec = &mut self.rec;
        let target = job.request.target;
        let collected = rec.span("collect", || recollect(engine, job));
        self.counts.runs += collected.runs.len();
        self.counts.snapshots += collected.total_snapshots();
        let by_loc = collected.by_location();

        let mut locations: Vec<LocationAnalysis> = Vec::with_capacity(by_loc.len());
        for (location, snaps) in &by_loc {
            let before = engine.cache_stats();
            let analysis = rec
                .span("infer", || engine.infer_at(target, *location, snaps))
                .unwrap_or_else(|e| panic!("{}: {e}", job.bench.name));
            let delta = engine.cache_stats().since(&before);
            self.counts.hits += delta.hits;
            self.counts.misses += delta.misses;
            locations.push(analysis);
        }

        // The frame rule, as the pipeline applies it after inference.
        if let Some(entry) = locations.iter().position(|l| l.location == Location::Entry) {
            let entry = locations[entry].clone();
            for analysis in &mut locations {
                let Location::Exit(_) = analysis.location else {
                    continue;
                };
                for inv in &mut analysis.invariants {
                    let framed = entry
                        .invariants
                        .iter()
                        .any(|pre| rec.span("validate", || validate_frame(pre, inv)));
                    if !framed {
                        inv.spurious = true;
                    }
                }
            }
        }
        let report = Report {
            target,
            locations,
            declared_locations: engine.program().locations_of(target),
            metrics: RunMetrics::default(),
            cache: Default::default(),
            static_warnings: Vec::new(),
            unreachable_locations: Vec::new(),
        };
        if digest(&report) != *reference {
            self.mismatched.insert(index);
        }

        // Checker search — uncached, bypassing the canonicalizing cache,
        // snapshots and any remote tier, so this is also the
        // trace-soundness re-check: every non-spurious invariant must be
        // admitted on every model it was inferred from, re-collected
        // above. Then lookup: every LOOKUP_STRIDE-th pair through a cache
        // one fill pass warmed, so each timed call canonicalizes, hits
        // and decodes.
        let config = engine.config().check;
        let uncached = CheckCtx::new(engine.types(), engine.preds()).with_config(config);
        let cached = CheckCtx::with_cache(engine.types(), engine.preds(), config, &self.pair_cache);
        let all = pairs(engine, &report, &by_loc);
        let mut rejected: BTreeSet<(Location, String)> = BTreeSet::new();
        for (model, formula, location) in &all {
            if rec
                .span("search", || uncached.check(model, formula))
                .is_none()
            {
                rejected.insert((*location, formula.to_string()));
            }
        }
        self.violations.extend(
            rejected
                .into_iter()
                .map(|(location, formula)| (job.bench.name, format!("{location}: {formula}"))),
        );
        let sample: Vec<_> = all.iter().step_by(LOOKUP_STRIDE).collect();
        rec.span("lookup.fill", || {
            for (model, formula, _) in &sample {
                cached.check(model, formula);
            }
        });
        for (model, formula, _) in &sample {
            rec.span("lookup", || cached.check(model, formula));
        }

        // The request's and the report's frames on the wire.
        if job.servable() {
            let upload = job.upload();
            rec.span("pool.fingerprint", || fingerprint(&upload));
            let batch = std::slice::from_ref(&job.request);
            let frame = rec
                .span("wire.encode", || {
                    proto::encode_analyze_frame(1, Some(&upload), batch)
                })
                .expect("spec inputs have a wire form");
            rec.span("wire.decode", || proto::ClientFrame::decode(&frame))
                .expect("an encoded frame decodes");
            let reply = rec.span("wire.encode", || proto::encode_report_frame(1, 0, &report));
            let decoded = rec
                .span("wire.decode", || proto::ServerFrame::decode(&reply))
                .expect("an encoded frame decodes");
            match decoded {
                proto::ServerFrame::Report { report: back, .. } if digest(&back) == *reference => {}
                _ => {
                    self.mismatched.insert(index);
                }
            }
            self.counts.wire_bytes += frame.len() + reply.len();
            self.counts.wire_requests += 1;
        }
    }

    /// Saves every cache the replay used and loads each snapshot back
    /// into a fresh cache.
    fn persist_round_trip(&mut self, engines: &[Arc<Engine>]) {
        std::fs::create_dir_all(self.work).expect("work directory");
        for (i, engine) in engines.iter().enumerate() {
            let path = self.work.join(format!("replay-{i}.snap"));
            let saved = self
                .rec
                .span("persist.save", || engine.save_cache_to(&path))
                .unwrap_or_else(|e| panic!("saving {path:?}: {e}"));
            self.counts.persist_entries += saved;
            self.counts.persist_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
            let profile = EnvProfile::new(engine.types(), engine.preds());
            let fresh = CheckCache::new();
            self.rec
                .span("persist.load", || persist::load(&fresh, &profile, &path))
                .unwrap_or_else(|e| panic!("loading {path:?}: {e}"));
            std::fs::remove_file(&path).ok();
        }
    }

    /// Serves `tenants` (indices into `jobs`) through `service` once
    /// more — each tenant resident and warm — timing the round trip
    /// against an in-process analysis on the same resolved engine.
    pub fn serve_layer(
        &mut self,
        jobs: &[Job],
        tenants: &[usize],
        reference: &[Digest],
        service: &Service,
    ) -> Result<(), sling_serve::ServeError> {
        let mut client = Client::connect(service.local_addr())?;
        for &i in tenants {
            let job = &jobs[i];
            let upload = job.upload();
            let batch = std::slice::from_ref(&job.request);
            self.rec.set_request(i as u32);
            let engine = self
                .rec
                .span("pool.resolve", || service.pool().resolve(Some(&upload)))
                .unwrap_or_else(|e| panic!("{}: {e}", job.bench.name));
            let served = self.rec.span("serve.roundtrip", || {
                client.analyze_all_uploaded(&upload, batch)
            })?;
            let local = self
                .rec
                .span("serve.inprocess", || engine.analyze(&job.request))
                .unwrap_or_else(|e| panic!("{}: {e}", job.bench.name));
            let overhead = self.rec.last("serve.roundtrip") - self.rec.last("serve.inprocess");
            self.serve.overheads_s.push(overhead);
            if digest(&served.reports[0]) != reference[i] || digest(&local) != reference[i] {
                self.mismatched.insert(i);
            }
        }
        let pool = client.pool_stats();
        self.serve.hits = pool.hits;
        self.serve.misses = pool.misses;
        self.serve.evictions = pool.evictions;
        Ok(())
    }

    /// [`Replay::serve_layer`] for the corpus workloads, which have no
    /// daemon of their own: boots one over `tenants`, uploads each once
    /// (untimed, cold), then serves them warm.
    pub fn serve_sample(
        &mut self,
        jobs: &[Job],
        tenants: &[usize],
        reference: &[Digest],
    ) -> Result<(), sling_serve::ServeError> {
        let pool = EnginePool::new(
            None,
            tenants.len().max(1),
            PoolSettings {
                parallelism: Some(self.workers),
                ..PoolSettings::default()
            },
        );
        let service = Service::bind_pool(pool, "127.0.0.1:0", ServeOptions::default())?;
        let outcome = (|| {
            let mut client = Client::connect(service.local_addr())?;
            for &i in tenants {
                client.analyze_all_uploaded(
                    &jobs[i].upload(),
                    std::slice::from_ref(&jobs[i].request),
                )?;
            }
            drop(client);
            self.serve_layer(jobs, tenants, reference, &service)
        })();
        service.shutdown()?;
        outcome
    }

    /// The per-layer metrics, in `BENCHMARK.json` order. `untraced_wall_s`
    /// is the untraced run's wall time for one pass over the same
    /// requests; the difference is the tracing overhead.
    pub fn metrics(&self, requests: usize, untraced_wall_s: f64) -> Vec<Metric> {
        let layers = self.rec.layers();
        let own = |name: &str| layers.get(name).map_or(0.0, |l| l.2);
        let count = |name: &str| layers.get(name).map_or(0, |l| l.0);
        let per_call_us = |name: &str| {
            let n = count(name);
            if n == 0 {
                0.0
            } else {
                own(name) * 1e6 / n as f64
            }
        };
        let c = &self.counts;
        let wire_reqs = c.wire_requests.max(1) as f64;
        let lookups = (c.hits + c.misses).max(1) as f64;
        let infer_ms: Vec<f64> = self
            .rec
            .durations("infer")
            .iter()
            .map(|s| s * 1e3)
            .collect();
        let engine_path_s = own("collect") + own("infer") + own("validate");
        let n = requests;
        vec![
            Metric::new(
                "build.parse_s",
                own("build.parse"),
                "s",
                count("build.parse"),
            ),
            Metric::new("build.typecheck_s", own("build.typecheck"), "s", n),
            Metric::new("build.lint_s", own("build.lint"), "s", n),
            Metric::new("build.compile_s", own("build.compile"), "s", n),
            Metric::new("build.engine_s", own("build.engine"), "s", n),
            Metric::new("collect.s", own("collect"), "s", n),
            Metric::new("collect.runs", c.runs as f64, "count", n),
            Metric::new("collect.snapshots", c.snapshots as f64, "count", n),
            Metric::new("infer.s", own("infer"), "s", count("infer")),
            Metric::new("infer.locations", count("infer") as f64, "count", n),
            Metric::new(
                "infer.p90_ms",
                percentile(&infer_ms, 0.9),
                "ms",
                infer_ms.len(),
            ),
            Metric::new("validate.s", own("validate"), "s", count("validate")),
            Metric::new("validate.calls", count("validate") as f64, "count", n),
            Metric::new("cache.hits", c.hits as f64, "count", n),
            Metric::new("cache.misses", c.misses as f64, "count", n),
            Metric::new("cache.hit_ratio", c.hits as f64 / lookups, "ratio", n),
            Metric::new("cache.entries", c.cache_entries as f64, "count", n),
            Metric::new("cache.resident_bytes", c.cache_bytes as f64, "bytes", n),
            Metric::new("search.calls", count("search") as f64, "count", n),
            Metric::new("search.s", own("search"), "s", count("search")),
            Metric::new(
                "search.us_per_call",
                per_call_us("search"),
                "us",
                count("search"),
            ),
            Metric::new("lookup.calls", count("lookup") as f64, "count", n),
            Metric::new("lookup.s", own("lookup"), "s", count("lookup")),
            Metric::new(
                "lookup.us_per_call",
                per_call_us("lookup"),
                "us",
                count("lookup"),
            ),
            Metric::new(
                "persist.save_s",
                own("persist.save"),
                "s",
                count("persist.save"),
            ),
            Metric::new(
                "persist.load_s",
                own("persist.load"),
                "s",
                count("persist.load"),
            ),
            Metric::new(
                "persist.bytes",
                c.persist_bytes as f64,
                "bytes",
                count("persist.save"),
            ),
            Metric::new(
                "persist.entries",
                c.persist_entries as f64,
                "count",
                count("persist.save"),
            ),
            Metric::new(
                "wire.encode_us",
                own("wire.encode") * 1e6 / wire_reqs,
                "us",
                c.wire_requests,
            ),
            Metric::new(
                "wire.decode_us",
                own("wire.decode") * 1e6 / wire_reqs,
                "us",
                c.wire_requests,
            ),
            Metric::new(
                "wire.bytes_per_req",
                c.wire_bytes as f64 / wire_reqs,
                "bytes",
                c.wire_requests,
            ),
            Metric::new(
                "pool.fingerprint_us",
                per_call_us("pool.fingerprint"),
                "us",
                count("pool.fingerprint"),
            ),
            Metric::new(
                "pool.resolve_us",
                per_call_us("pool.resolve"),
                "us",
                count("pool.resolve"),
            ),
            Metric::new("pool.hits", self.serve.hits as f64, "count", 1),
            Metric::new("pool.misses", self.serve.misses as f64, "count", 1),
            Metric::new(
                "serve.overhead_ms",
                median(&self.serve.overheads_s) * 1e3,
                "ms",
                self.serve.overheads_s.len(),
            ),
            Metric::new("trace.overhead_s", engine_path_s - untraced_wall_s, "s", 1),
        ]
    }

    /// Lines for the human-readable table: per-layer span counts, total
    /// and self time, and the figures that are not `BENCHMARK.json`
    /// metrics.
    pub fn summary(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .rec
            .layers()
            .into_iter()
            .map(|(name, (n, total, own))| {
                format!("span {name:<18} calls={n:<8} total_s={total:.4} self_s={own:.4}")
            })
            .collect();
        lines.push(format!("pool.evictions {}", self.serve.evictions));
        lines.push(format!("trace.spans {}", self.rec.len()));
        lines
    }

    /// Writes the spans as JSON lines under the work directory.
    pub fn write_spans(&self, path: &Path, header: &str) -> std::io::Result<()> {
        self.rec.write(path, header)
    }
}
