//! Tenant-isolation blitz for the multi-tenant engine pool: one daemon
//! with no baked-in program serves many concurrent clients, each
//! uploading its own program on the wire. Every tenant's reports must
//! be formula-identical to an in-process run of the same program —
//! zero cross-tenant bleed — with the pool's hit/miss/eviction
//! counters observable on the wire, hostile uploads answered with
//! typed errors that never kill the daemon or poison the pool, and
//! batches without an upload rejected typed when no default tenant
//! exists.

use std::fmt::Write as _;
use std::time::Duration;

use sling::{AnalysisRequest, Engine, InputSpec, Report, ValueSpec};
use sling_serve::{
    Client, EnginePool, PoolSettings, ProgramUpload, ServeError, ServeOptions, Service,
};
use sling_suite::fixtures::ListCorpus;

/// Everything formula-relevant about a report (timing and cache deltas
/// legitimately differ between a served and an in-process run).
fn fingerprint(report: &Report) -> String {
    let mut out = format!(
        "{} runs={} traces={} declared={:?}\n",
        report.target, report.metrics.runs, report.metrics.traces, report.declared_locations
    );
    for loc in &report.locations {
        let _ = writeln!(
            out,
            "  {} models={} snaps={} tainted={}",
            loc.location, loc.models_used, loc.snapshots_seen, loc.tainted
        );
        for inv in &loc.invariants {
            let _ = writeln!(
                out,
                "    [{}|{}|{:?}] {} :: residues={:?} activations={:?}",
                inv.spurious, inv.grade, inv.stats, inv.formula, inv.residues, inv.activations
            );
        }
    }
    out
}

fn upload_for(corpus: &ListCorpus) -> ProgramUpload {
    ProgramUpload {
        program: corpus.program(),
        predicates: corpus.predicates(),
    }
}

/// A daemon with no default tenant: `Service::bind_pool` over an empty
/// pool, exactly what `sling-serve --pool-cap N` (no `--program`) boots.
fn empty_daemon(pool_cap: usize) -> Service {
    let pool = EnginePool::new(None, pool_cap, PoolSettings::default());
    Service::bind_pool(pool, "127.0.0.1:0", ServeOptions::default()).expect("service binds")
}

#[test]
fn concurrent_tenants_stay_isolated_under_a_tight_pool_cap() {
    // N client threads × M distinct programs against --pool-cap 2:
    // every tenant's served reports must match its own in-process run
    // formula-for-formula, and the tight cap must force evictions.
    // Node-type names are distinct per tenant (interned symbols are
    // process-global), so any cross-tenant bleed would change a
    // formula and fail the fingerprint comparison.
    let tenants: Vec<ListCorpus> = ["MtIsoA", "MtIsoB", "MtIsoC", "MtIsoD"]
        .into_iter()
        .map(ListCorpus::new)
        .collect();

    // In-process reference runs, one per tenant.
    let references: Vec<Vec<String>> = tenants
        .iter()
        .map(|corpus| {
            let engine = Engine::builder()
                .program_source(&corpus.program())
                .expect("program parses")
                .predicates_source(&corpus.predicates())
                .expect("predicates parse")
                .build()
                .expect("engine builds");
            engine
                .analyze_all(&corpus.batch(1))
                .expect("in-process batch runs")
                .reports
                .iter()
                .map(fingerprint)
                .collect()
        })
        .collect();

    let service = empty_daemon(2);
    let addr = service.local_addr();

    // 8 threads: two per tenant, all hammering the 2-slot pool at once.
    std::thread::scope(|scope| {
        for round in 0..2 {
            for (tenant, corpus) in tenants.iter().enumerate() {
                let reference = &references[tenant];
                scope.spawn(move || {
                    let mut client =
                        Client::connect_retry(addr, Duration::from_secs(10)).expect("connects");
                    let served = client
                        .analyze_all_uploaded(&upload_for(corpus), &corpus.batch(1))
                        .expect("served batch runs");
                    assert_eq!(served.reports.len(), reference.len());
                    for (index, report) in served.reports.iter().enumerate() {
                        assert_eq!(
                            fingerprint(report),
                            reference[index],
                            "tenant {tenant} round {round}: served report for `{}` \
                             must equal its own in-process report",
                            report.target
                        );
                    }
                });
            }
        }
    });

    // 4 distinct tenants through a 2-slot pool: at least 4 builds, at
    // least 2 evictions, residency within the cap — all visible on the
    // wire via the done epilogue (the last client's copy is checked
    // here through a fresh connection's hello banner).
    let client = Client::connect(addr).expect("stats probe connects");
    let stats = client.pool_stats();
    assert_eq!(stats.capacity, 2);
    assert!(stats.resident <= 2, "{stats:?}");
    assert!(
        stats.misses >= 4,
        "each of 4 tenants was built at least once: {stats:?}"
    );
    assert!(
        stats.evictions >= 2,
        "4 tenants cannot fit a 2-slot pool without evicting: {stats:?}"
    );
    assert_eq!(
        stats.misses,
        stats.evictions + stats.resident,
        "every built engine is either resident or was evicted: {stats:?}"
    );
    assert!(
        stats.hits + stats.misses == 8,
        "8 uploaded batches, each a hit or a miss: {stats:?}"
    );
    service.shutdown().expect("graceful drain");
}

#[test]
fn identical_uploads_share_one_engine_and_its_cache() {
    // Two clients uploading byte-identical sources must land on the
    // same pooled engine: the second batch rides the first one's
    // entailment cache, and the pool counts a hit, not a build.
    let corpus = ListCorpus::new("MtShareNode");
    let upload = upload_for(&corpus);
    let service = empty_daemon(4);

    let mut first = Client::connect(service.local_addr()).expect("first connects");
    let cold = first
        .analyze_all_uploaded(&upload, &corpus.batch(1))
        .expect("cold batch");
    let after_cold = first.pool_stats();
    assert_eq!(
        (after_cold.hits, after_cold.misses),
        (0, 1),
        "{after_cold:?}"
    );

    let mut second = Client::connect(service.local_addr()).expect("second connects");
    let warm = second
        .analyze_all_uploaded(&upload, &corpus.batch(1))
        .expect("warm batch");
    let after_warm = second.pool_stats();
    assert_eq!(
        (after_warm.hits, after_warm.misses),
        (1, 1),
        "{after_warm:?}"
    );
    assert_eq!(
        warm.cache.misses, 0,
        "the second identical batch must ride the first one's cache: {:?}",
        warm.cache
    );
    for (a, b) in cold.reports.iter().zip(&warm.reports) {
        assert_eq!(fingerprint(a), fingerprint(b));
    }
    service.shutdown().expect("graceful drain");
}

#[test]
fn hostile_uploads_fail_typed_and_leave_the_pool_healthy() {
    // Parse and type failures each fail *their own batch* with a typed
    // Remote error, a productivity-lint failure with a typed Rejected
    // frame carrying the structured finding; the connection and the
    // pool serve the next request as if nothing happened.
    let corpus = ListCorpus::new("MtHostileNode");
    let good = upload_for(&corpus);
    let service = empty_daemon(4);
    let mut client = Client::connect(service.local_addr()).expect("connects");

    let parse_fail = ProgramUpload {
        program: "fn broken( {".into(),
        predicates: String::new(),
    };
    let type_fail = ProgramUpload {
        program: "struct TNode { next: TNode*; }
                  fn bad(x: TNode*) -> TNode* { return x->nosuchfield; }"
            .into(),
        predicates: String::new(),
    };
    // An unguarded self-call: every disjunct recurses without consuming
    // a cell, which the productivity lint rejects.
    let lint_fail = ProgramUpload {
        program: corpus.program(),
        predicates: format!("pred spin(x: {node}*) := spin(x);", node = corpus.node()),
    };

    let probe = AnalysisRequest::new("reverse").input(InputSpec::seeded(1).arg(ValueSpec::nil()));
    for (what, hostile) in [("parse", &parse_fail), ("type", &type_fail)] {
        match client.analyze_all_uploaded(hostile, std::slice::from_ref(&probe)) {
            Err(ServeError::Remote(message)) => {
                assert!(message.contains("failed to build"), "{what}: {message}");
            }
            other => panic!("{what} failure must be Remote, got {other:?}"),
        }
        // Same connection, next request: a good upload still serves.
        client.ping().expect("connection survives the rejection");
    }
    // The productivity lint is a structured diagnostic since sling6: the
    // batch fails with a typed `rejected` frame, not a stringly error.
    match client.analyze_all_uploaded(&lint_fail, std::slice::from_ref(&probe)) {
        Err(ServeError::Rejected(diags)) => {
            assert!(
                diags
                    .iter()
                    .any(|d| d.code == sling::lint_codes::UNPRODUCTIVE_PRED),
                "lint: SL001 missing from:\n{diags}"
            );
        }
        other => panic!("lint failure must be Rejected, got {other:?}"),
    }
    client.ping().expect("connection survives the rejection");
    let served = client
        .analyze_all_uploaded(&good, &corpus.batch(1))
        .expect("good upload after three hostile ones");
    assert!(!served.reports.is_empty());
    let stats = client.pool_stats();
    assert_eq!(
        stats.resident, 1,
        "failed builds must not occupy pool slots: {stats:?}"
    );
    service.shutdown().expect("graceful drain");
}

#[test]
fn no_default_tenant_rejects_bare_batches_typed() {
    // A daemon booted with nothing baked in answers an upload-less
    // batch with a typed error naming the fix, not a hang or a crash.
    let service = empty_daemon(2);
    let mut client = Client::connect(service.local_addr()).expect("connects");
    assert_eq!(client.warm_entries(), 0, "nothing to warm-boot");

    let bare = AnalysisRequest::new("reverse").input(InputSpec::seeded(1).arg(ValueSpec::nil()));
    match client.analyze_all(std::slice::from_ref(&bare)) {
        Err(ServeError::Remote(message)) => {
            assert!(message.contains("no default program"), "{message}");
        }
        other => panic!("expected Remote, got {other:?}"),
    }
    // The rejection is per-batch: an upload on the same connection works.
    let corpus = ListCorpus::new("MtNoDefNode");
    client
        .analyze_all_uploaded(&upload_for(&corpus), &corpus.batch(1))
        .expect("uploads still serve");
    service.shutdown().expect("graceful drain");
}
