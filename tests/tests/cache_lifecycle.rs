//! Engine-level cache-lifecycle tests: a capacity-bounded engine never
//! exceeds its entry cap over a corpus run (evictions are observable
//! and answers stay correct), and sibling snapshots fold into a live
//! engine with `Engine::absorb_snapshot`, which then answers the
//! siblings' requests without a search and with identical formulas.

use std::path::PathBuf;

use sling::{AnalysisRequest, Engine, Report};
use sling_checker::SHARD_COUNT;
use sling_suite::fixtures::ListCorpus;

fn engine_for(corpus: &ListCorpus) -> sling::EngineBuilder {
    Engine::builder()
        .program_source(&corpus.program())
        .expect("corpus program parses")
        .predicates_source(&corpus.predicates())
        .expect("corpus predicates parse")
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

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sling-lifecycle-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn capacity_bounded_corpus_run_never_exceeds_the_cap() {
    // One corpus round creates a few hundred cache entries unbounded;
    // a 64-entry cap forces steady-state eviction. The cap is enforced
    // per shard, so the honest bound is ceil(cap / shards) * shards.
    const CAP: usize = 64;
    let effective_cap = CAP.div_ceil(SHARD_COUNT) * SHARD_COUNT;
    let corpus = ListCorpus::new("LifecycleCapNode");
    let requests = corpus.batch(1);

    let unbounded = engine_for(&corpus).build().expect("engine builds");
    let reference = unbounded.analyze_all(&requests).expect("corpus runs");
    assert!(
        unbounded.cache_stats().entries > effective_cap as u64,
        "corpus must overflow the cap for this test to bite: {:?}",
        unbounded.cache_stats()
    );
    assert_eq!(unbounded.cache_stats().evictions, 0);

    let bounded = engine_for(&corpus)
        .cache_capacity(CAP)
        .build()
        .expect("engine builds");
    let batch = bounded.analyze_all(&requests).expect("corpus runs");

    let stats = bounded.cache_stats();
    assert!(
        stats.entries <= effective_cap as u64,
        "resident entries {} exceed the configured cap {effective_cap}: {stats:?}",
        stats.entries
    );
    assert!(
        stats.evictions > 0,
        "an overflowing corpus must evict: {stats:?}"
    );
    assert!(stats.resident_bytes > 0);
    assert!(
        batch.cache.evictions > 0,
        "the batch delta surfaces evictions too: {:?}",
        batch.cache
    );

    // Eviction forgets, never corrupts: formulas match the unbounded
    // run exactly.
    for (bounded_report, reference_report) in batch.reports.iter().zip(&reference.reports) {
        assert_eq!(
            fingerprint(bounded_report),
            fingerprint(reference_report),
            "a bounded cache must not change what is inferred"
        );
    }
}

#[test]
fn absorb_snapshot_folds_sibling_snapshots_into_a_live_engine() {
    let corpus = ListCorpus::new("LifecycleAbsorbNode");
    let dir = temp_dir("absorb");
    let a_path = dir.join("a.snap");
    let b_path = dir.join("b.snap");

    // Two "sibling processes" each run half the corpus and snapshot.
    let batch = corpus.batch(1);
    let (half_a, half_b) = batch.split_at(2); // reverse+traverse / append+last
    let sibling_a = engine_for(&corpus).build().expect("engine builds");
    let cold_a = sibling_a.analyze_all(half_a).expect("half A runs");
    let a_written = sibling_a.save_cache_to(&a_path).expect("snapshot A saves");
    let sibling_b = engine_for(&corpus).build().expect("engine builds");
    let cold_b = sibling_b.analyze_all(half_b).expect("half B runs");
    let b_written = sibling_b.save_cache_to(&b_path).expect("snapshot B saves");
    assert!(a_written > 0 && b_written > 0);

    // A fresh engine absorbs both and is warm for *both* halves: it
    // reuses the siblings' verdicts without a single search and without
    // changing a formula.
    let engine = engine_for(&corpus).build().expect("engine builds");
    assert_eq!(engine.warm_entries(), 0);
    let a_stats = engine.absorb_snapshot(&a_path).expect("A merges");
    let b_stats = engine.absorb_snapshot(&b_path).expect("B merges");
    assert_eq!(a_stats.merged, a_written, "the first snapshot lands whole");
    assert!(b_stats.merged > 0);
    assert_eq!(
        engine.warm_entries(),
        a_stats.merged + b_stats.merged,
        "warm_entries must track absorbed snapshots"
    );
    assert_eq!(
        engine.warm_entries(),
        engine.cache_stats().entries,
        "each restored entry counts once, shared keys included"
    );

    for (half, cold, name) in [(half_a, &cold_a, "A"), (half_b, &cold_b, "B")] {
        let before = engine.cache_stats();
        let warm = engine.analyze_all(half).expect("half runs warm");
        let after = engine.cache_stats().since(&before);
        assert!(
            after.warm_hits > 0,
            "snapshot {name} must answer half {name}: {after:?}"
        );
        assert_eq!(
            after.misses, 0,
            "half {name} must run without a search: {after:?}"
        );
        assert_eq!(warm.reports.len(), cold.reports.len());
        for (warm_report, cold_report) in warm.reports.iter().zip(&cold.reports) {
            assert_eq!(
                fingerprint(warm_report),
                fingerprint(cold_report),
                "absorbed verdicts must not change what half {name} infers"
            );
        }
    }

    // Absorbing a corrupt snapshot is a typed error, not a panic, and
    // leaves the engine serving.
    let corrupt = dir.join("c.snap");
    std::fs::write(&corrupt, b"not a snapshot").unwrap();
    assert!(engine.absorb_snapshot(&corrupt).is_err());
    assert!(engine
        .analyze(&AnalysisRequest::new("traverse").input(corpus.one(1, 3)))
        .is_ok());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn absorbing_the_same_snapshot_twice_adds_nothing() {
    let corpus = ListCorpus::new("LifecycleIdemNode");
    let dir = temp_dir("idem");
    let path = dir.join("only.snap");

    let seeder = engine_for(&corpus).build().expect("engine builds");
    seeder
        .analyze(&AnalysisRequest::new("traverse").input(corpus.one(3, 4)))
        .expect("seed run");
    let written = seeder.save_cache_to(&path).expect("snapshot saves");

    let engine = engine_for(&corpus).build().expect("engine builds");
    let first = engine.absorb_snapshot(&path).expect("first merge");
    assert_eq!(first.merged, written);
    let second = engine.absorb_snapshot(&path).expect("second merge");
    assert_eq!(
        (second.merged, second.skipped),
        (0, written),
        "same keys: everything skips"
    );
    assert_eq!(engine.warm_entries(), written, "idempotent warm count");

    std::fs::remove_dir_all(&dir).ok();
}
