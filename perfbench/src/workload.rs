//! The benchmark's inputs: which corpus programs a workload analyzes, in
//! which seeded order, with which generated test inputs — and the
//! output checks that compare formulas and count documented properties.

use std::sync::Arc;

use sling::{AnalysisRequest, CheckCache, Engine, EnvProfile, InputSource, Report, SlingConfig};
use sling_lang::Location;
use sling_logic::Symbol;
use sling_serve::ProgramUpload;
use sling_suite::{corpus, eval, predicates, Bench, BugKind, Category};

use crate::stats::Rng;

/// The three named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CorpusCold,
    CorpusWarm,
    ServedWarm,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "corpus_cold" => Some(Workload::CorpusCold),
            "corpus_warm" => Some(Workload::CorpusWarm),
            "served_warm" => Some(Workload::ServedWarm),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusCold => "corpus_cold",
            Workload::CorpusWarm => "corpus_warm",
            Workload::ServedWarm => "served_warm",
        }
    }
}

/// Seed of the corpus input generator: the paper-reproduction default
/// (`EvalConfig::default().seed`). Held fixed so every workload seed
/// analyzes the same structures and the figures stay comparable; the
/// workload seed orders the requests instead.
pub fn input_seed() -> u64 {
    eval::EvalConfig::default().seed
}

/// Programs of the smoke subset: a few cheap ones from three categories.
const SMOKE: &[&str] = &[
    "sll/reverse",
    "sll/append",
    "sll/delAll",
    "circular/insertFront",
    "bst/find",
];

/// One request of a workload: the corpus program and its analysis
/// request.
#[derive(Debug, Clone)]
pub struct Job {
    pub bench: Bench,
    pub request: AnalysisRequest,
}

impl Job {
    fn new(bench: Bench) -> Job {
        let request =
            AnalysisRequest::new(Symbol::intern(bench.target)).inputs(bench.inputs(input_seed()));
        Job { bench, request }
    }

    /// True when every input is declarative, so the request has a wire
    /// form and can be served.
    pub fn servable(&self) -> bool {
        self.request
            .inputs
            .iter()
            .all(|input| matches!(input, InputSource::Spec(_)))
    }

    /// The program and predicate upload that selects this tenant.
    pub fn upload(&self) -> ProgramUpload {
        ProgramUpload {
            program: self.bench.source.to_string(),
            predicates: predicates::predicates_source(self.bench.category).to_string(),
        }
    }
}

/// The corpus programs (all 157, or the smoke subset): categories in the
/// seed's order, programs within a category in corpus order. A category
/// shares one cache, so keeping its internal order fixed keeps which
/// program pays which miss — and so each request's latency — the same
/// for every seed.
pub fn corpus_jobs(seed: u64, smoke: bool) -> Vec<Job> {
    let mut benches: Vec<Bench> = corpus::all_benches();
    if smoke {
        benches.retain(|b| SMOKE.contains(&b.name));
        assert_eq!(benches.len(), SMOKE.len(), "smoke programs exist");
    }
    let mut categories = Category::all().to_vec();
    Rng::new(seed).shuffle(&mut categories);
    categories
        .into_iter()
        .flat_map(|category| benches.iter().filter(move |b| b.category == category))
        .cloned()
        .map(Job::new)
        .collect()
}

/// The served tenants: the corpus programs whose inputs all have a wire
/// form, in the seed's order.
pub fn served_jobs(seed: u64, smoke: bool) -> Vec<Job> {
    corpus_jobs(seed, smoke)
        .into_iter()
        .filter(Job::servable)
        .collect()
}

/// Builds the engine for one corpus program: the corpus predicate
/// library, default config, an explicit worker budget, the given shared
/// cache, and optionally a snapshot to warm-start from.
pub fn corpus_engine(
    bench: &Bench,
    cache: Arc<CheckCache>,
    snapshot: Option<&std::path::Path>,
    workers: usize,
) -> Engine {
    let mut builder = Engine::builder()
        .program(eval::compile(bench))
        .pred_env(predicates::pred_env(bench.category))
        .config(SlingConfig::default())
        .parallelism(workers)
        .shared_cache(cache);
    if let Some(path) = snapshot {
        builder = builder.cache_path(path);
    }
    builder
        .build()
        .unwrap_or_else(|e| panic!("{}: engine build error: {e}", bench.name))
}

/// The fingerprint of a corpus program's checking environment (its
/// types and its category's predicates): the part of a cache a snapshot
/// file holds.
pub fn env_tag(job: &Job) -> u64 {
    let types = eval::compile(&job.bench).type_env();
    EnvProfile::new(&types, &predicates::pred_env(job.bench.category)).env_tag()
}

/// A report reduced to what the output checks compare: per location,
/// every invariant's formula and spurious flag, in report order.
pub type Digest = Vec<(Location, Vec<(String, bool)>)>;

pub fn digest(report: &Report) -> Digest {
    report
        .locations
        .iter()
        .map(|loc| {
            (
                loc.location,
                loc.invariants
                    .iter()
                    .map(|inv| (inv.formula.to_string(), inv.spurious))
                    .collect(),
            )
        })
        .collect()
}

/// Documented properties of `bench` that the report's non-spurious
/// invariants subsume, counted as Table 2 counts them: programs with no
/// usable traces (the seeded-segfault ones, or no invariants at all)
/// find none.
pub fn props_found(bench: &Bench, report: &Report) -> usize {
    let no_traces = bench.bug == Some(BugKind::Segfault)
        || report.locations.is_empty()
        || report.invariant_count() == 0;
    if no_traces {
        return 0;
    }
    bench
        .properties
        .iter()
        .filter(|p| eval::sling_finds(report, p))
        .count()
}
