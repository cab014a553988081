//! Cross-run cache persistence through the engine API: an engine built
//! from a saved snapshot answers the batch corpus warm
//! (`CacheStats::warm_hits > 0`) with output identical to a cold run,
//! and stale or corrupt snapshot files degrade to a cold start instead
//! of failing the build.

use std::path::PathBuf;

use sling::{AnalysisRequest, Engine, Report};
use sling_suite::fixtures::ListCorpus;

fn corpus() -> ListCorpus {
    ListCorpus::new("PersistTestNode")
}

fn engine_at(path: Option<&PathBuf>) -> Engine {
    let corpus = corpus();
    let mut builder = Engine::builder()
        .program_source(&corpus.program())
        .expect("program parses")
        .predicates_source(&corpus.predicates())
        .expect("predicates parse")
        .parallelism(2);
    if let Some(path) = path {
        builder = builder.cache_path(path);
    }
    builder.build().expect("program checks")
}

fn fingerprint(report: &Report) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{}\n", report.target);
    for loc in &report.locations {
        let _ = writeln!(out, "  {}", loc.location);
        for inv in &loc.invariants {
            let _ = writeln!(out, "    [{}] {}", inv.spurious, inv.formula);
        }
    }
    out
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sling-engine-persist-{}-{name}.bin",
        std::process::id()
    ))
}

#[test]
fn warm_started_engine_reports_warm_hits_and_identical_output() {
    let path = temp_path("warm");
    std::fs::remove_file(&path).ok();
    let requests = corpus().batch(1);

    // Cold process: run the corpus, snapshot the cache.
    let cold = engine_at(Some(&path));
    assert_eq!(cold.warm_entries(), 0, "no snapshot yet: cold start");
    let cold_batch = cold.analyze_all(&requests).expect("targets exist");
    assert_eq!(
        cold_batch.cache.warm_hits, 0,
        "nothing was loaded from disk"
    );
    let written = cold.save_cache().expect("snapshot writes");
    assert!(written > 0, "the corpus run must have populated the cache");

    // Second process: same program and predicates, warm start.
    let warm = engine_at(Some(&path));
    assert_eq!(
        warm.warm_entries(),
        written,
        "every saved entry must be restored"
    );
    let warm_batch = warm.analyze_all(&requests).expect("targets exist");
    // Every key survived the round trip: the warm run asks the cold
    // run's questions, and the snapshot answers each one.
    assert_eq!(
        warm_batch.cache.misses, 0,
        "a restored key must answer its query: {:?}",
        warm_batch.cache
    );
    assert_eq!(
        warm_batch.cache.warm_hits, warm_batch.cache.hits,
        "every hit is on a restored entry: {:?}",
        warm_batch.cache
    );
    assert_eq!(
        warm_batch.cache.hits,
        cold_batch.cache.lookups(),
        "the warm run asks what the cold run asked (cold {:?} vs warm {:?})",
        cold_batch.cache,
        warm_batch.cache
    );

    // Warm verdicts are the same verdicts: identical reports.
    for (cold_report, warm_report) in cold_batch.reports.iter().zip(&warm_batch.reports) {
        assert_eq!(fingerprint(cold_report), fingerprint(warm_report));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn stale_or_corrupt_snapshots_degrade_to_a_cold_start() {
    let corpus = corpus();

    // Corrupt bytes at the path: the build succeeds, cold.
    let path = temp_path("corrupt");
    std::fs::write(&path, b"not a snapshot at all").unwrap();
    let engine = engine_at(Some(&path));
    assert_eq!(engine.warm_entries(), 0);
    let report = engine
        .analyze(&AnalysisRequest::new("traverse").input(corpus.one(1, 3)))
        .expect("engine is fully functional despite the bad snapshot");
    assert!(report.invariant_count() > 0);
    std::fs::remove_file(&path).ok();

    // A snapshot from a *different predicate library* (same node type,
    // degenerate sll) is rejected on fingerprint, not silently reused.
    let path = temp_path("stale");
    std::fs::remove_file(&path).ok();
    let other = Engine::builder()
        .program_source(&corpus.program())
        .expect("program parses")
        .predicates_source(&format!(
            "pred sll(x: {n}*) := emp & x == nil
               | exists u. x -> {n}{{next: u, data: 7}} * sll(u);",
            n = corpus.node()
        ))
        .expect("predicates parse")
        .cache_path(&path)
        .build()
        .expect("program checks");
    let _ = other.analyze(&AnalysisRequest::new("last").input(corpus.one(2, 2)));
    assert!(other.save_cache().expect("snapshot writes") > 0);

    let mismatched = engine_at(Some(&path));
    assert_eq!(
        mismatched.warm_entries(),
        0,
        "entries computed under different predicates must not warm this engine"
    );
    std::fs::remove_file(&path).ok();

    // A missing path is simply a cold start too.
    let path = temp_path("missing");
    std::fs::remove_file(&path).ok();
    assert_eq!(engine_at(Some(&path)).warm_entries(), 0);
}

#[test]
fn partial_predicate_change_keeps_untouched_entries_warm() {
    // Mutate *one* predicate of the library. A snapshot answers only the
    // library it was saved under, so the mutated engine starts cold,
    // without the entries that touch only the unchanged sll either; its
    // own save replaces the file, and the next boot is warm.
    let corpus = corpus();
    let path = temp_path("partial");
    std::fs::remove_file(&path).ok();
    let requests = corpus.batch(1);

    // Seed under the standard sll + lseg library.
    let seeder = engine_at(Some(&path));
    seeder.analyze_all(&requests).expect("corpus runs");
    assert!(seeder.save_cache().expect("snapshot writes") > 0);

    // Same program, same sll — but lseg's definition changed.
    let mutated_library = format!(
        "pred sll(x: {n}*) := emp & x == nil
           | exists u, d. x -> {n}{{next: u, data: d}} * sll(u);
         pred lseg(x: {n}*, y: {n}*) := emp & x == y & x == y
           | exists u, d. x -> {n}{{next: u, data: d}} * lseg(u, y);",
        n = corpus.node()
    );
    let mutated_engine = || {
        Engine::builder()
            .program_source(&corpus.program())
            .expect("program parses")
            .predicates_source(&mutated_library)
            .expect("predicates parse")
            .cache_path(&path)
            .build()
            .expect("program checks")
    };

    let mutated = mutated_engine();
    assert_eq!(mutated.warm_entries(), 0, "an edited library starts cold");
    let profile = sling::EnvProfile::new(mutated.types(), mutated.preds());
    assert!(matches!(
        sling::persist::load(&sling::CheckCache::new(), &profile, &path),
        Err(sling::PersistError::FingerprintMismatch { .. })
    ));
    let cold = mutated.analyze_all(&requests).expect("corpus runs");
    assert_eq!(cold.cache.warm_hits, 0, "{:?}", cold.cache);
    let written = mutated.save_cache().expect("snapshot writes");
    assert!(written > 0);

    // The engine's own save replaced the seeder's file: the next boot
    // under the mutated library restores it and runs without a search.
    let rebooted = mutated_engine();
    assert_eq!(rebooted.warm_entries(), written);
    let warm = rebooted.analyze_all(&requests).expect("corpus runs");
    assert!(warm.cache.warm_hits > 0, "{:?}", warm.cache);
    assert_eq!(warm.cache.misses, 0, "{:?}", warm.cache);
    std::fs::remove_file(&path).ok();
}

#[test]
fn save_cache_needs_a_configured_path() {
    let engine = engine_at(None);
    let err = engine.save_cache().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    // save_cache_to works without a configured path and feeds a later
    // cache_path build.
    let path = temp_path("explicit");
    std::fs::remove_file(&path).ok();
    let _ = engine.analyze(&AnalysisRequest::new("traverse").input(corpus().one(3, 4)));
    let written = engine.save_cache_to(&path).expect("snapshot writes");
    assert!(written > 0);
    let warm = engine_at(Some(&path));
    assert_eq!(warm.warm_entries(), written);
    std::fs::remove_file(&path).ok();
}
