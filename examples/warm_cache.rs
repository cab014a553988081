//! Warm-starting the entailment cache across processes.
//!
//! First run: no snapshot exists, the engine starts cold, analyzes a
//! small corpus, and saves its cache. Second run (same command): the
//! engine restores the snapshot at build time and answers the corpus
//! from it — `CacheStats::warm_hits` shows how many checker searches
//! the warm start skipped. When a snapshot was actually restored, the
//! example asserts that it answered every query (no miss, every hit on a
//! restored entry), so running it twice doubles as an end-to-end check
//! that every key survives the persistence path:
//!
//! ```sh
//! cargo run -p sling-examples --example warm_cache   # cold: writes the snapshot
//! cargo run -p sling-examples --example warm_cache   # warm: reads it back
//! ```
//!
//! A snapshot that exists but is rejected (corrupt, or written under a
//! different predicate library or format version) is *not* an error:
//! the engine starts cold and this run overwrites the file with a fresh
//! snapshot. The snapshot lives under the system temp directory; pass a
//! path as the first argument to put it somewhere else.

use sling::Engine;
use sling_suite::fixtures::ListCorpus;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("sling-warm-cache-example.bin"));
    let had_snapshot = path.exists();

    let corpus = ListCorpus::new("WarmCacheNode");
    let engine = Engine::builder()
        .program_source(&corpus.program())?
        .predicates_source(&corpus.predicates())?
        .cache_path(&path)
        .build()?;

    let restored = engine.warm_entries();
    match (had_snapshot, restored) {
        (false, _) => println!("cold start: no snapshot at {}", path.display()),
        (true, 0) => println!(
            "cold start: snapshot at {} was rejected (stale or corrupt); overwriting",
            path.display()
        ),
        (true, n) => println!("warm start: {n} entries restored from {}", path.display()),
    }

    let batch = engine.analyze_all(&corpus.batch(1))?;
    println!(
        "{} invariants across {} targets; cache: {}",
        batch.invariant_count(),
        batch.reports.len(),
        batch.cache
    );

    if restored > 0 {
        // The run asks what the run that saved the snapshot asked, so a
        // key that did not survive the save and load would miss.
        assert!(
            batch.cache.warm_hits > 0,
            "warm start restored {restored} entries but answered no queries"
        );
        assert_eq!(
            batch.cache.misses, 0,
            "warm start restored {restored} entries but missed: {}",
            batch.cache
        );
        assert_eq!(
            batch.cache.warm_hits, batch.cache.hits,
            "every hit must be on a restored entry: {}",
            batch.cache
        );
        println!(
            "warm start verified: {} of {} hits came from the snapshot",
            batch.cache.warm_hits, batch.cache.hits
        );
    }

    let written = engine.save_cache()?;
    println!("snapshot saved: {written} entries -> {}", path.display());
    Ok(())
}
