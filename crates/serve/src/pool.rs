//! A capacity-bounded LRU pool of built [`Engine`]s, keyed by uploaded
//! program + predicate source.
//!
//! This is what makes the daemon multi-tenant: each `analyze` batch
//! either names the pre-warmed default tenant (no upload) or carries a
//! [`ProgramUpload`], which the pool resolves to a built engine —
//! reusing one built for an identical upload, or running the full build
//! pipeline (parse → typecheck → static diagnostics → productivity lint
//! → bytecode compile) on a miss. Every uploaded program passes the
//! [`sling::AnalysisSettings`] lint gate — a tenant is untrusted source,
//! and deny-level findings (use-before-init, unreachable snapshot
//! locations, definite-null dereferences) reject the upload with the
//! structured findings instead of pooling an engine that would fault or
//! silently under-infer. Residency is bounded: past the cap, the
//! least-recently-used engine is evicted (its entailment cache and
//! compiled chunks go with it; a returning tenant rebuilds and counts a
//! miss).
//!
//! Slots are keyed by the upload itself, hashed by its [`fingerprint`]:
//! two uploads whose fingerprints collide still compare their sources,
//! so they never share an engine.
//!
//! Concurrency contract: at most one build runs per distinct upload —
//! a second batch arriving for the same upload mid-build waits on
//! a condvar rather than duplicating the build. Builds run *outside*
//! the pool lock, so a slow typecheck never blocks hits on other
//! tenants. A failed build removes its in-flight marker and wakes the
//! waiters, so a hostile upload can neither poison the slot nor wedge
//! a peer: the next attempt simply rebuilds (and fails again, typed).

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use sling::{AnalysisSettings, BuildError, Engine, SlingConfig};

use crate::proto::{PoolStats, ProgramUpload};

/// Build-time settings every pool-built engine shares. (The default
/// tenant keeps whatever it was built with.)
#[derive(Debug, Clone, Default)]
pub struct PoolSettings {
    /// The [`SlingConfig`] uploaded tenants are built with.
    pub config: SlingConfig,
    /// Worker budget per built engine; `None` uses
    /// [`sling::default_parallelism`].
    pub parallelism: Option<usize>,
    /// Entailment-cache entry bound per built engine; `None` keeps the
    /// engine default.
    pub cache_capacity: Option<usize>,
}

/// Why the pool could not produce an engine for a batch.
#[derive(Debug)]
pub enum PoolError {
    /// The batch named the default tenant but the daemon booted without
    /// one (`sling-serve` without `--program`/`--corpus`).
    NoDefault,
    /// The uploaded sources failed the build pipeline (parse, typecheck,
    /// predicate productivity lint, static diagnostics gate, ...). A
    /// [`BuildError::Rejected`] inside carries the structured findings
    /// the serve layer forwards as a `rejected` frame.
    Build(BuildError),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::NoDefault => {
                write!(f, "no default program is loaded; upload one with the batch")
            }
            PoolError::Build(e) => write!(f, "uploaded program failed to build: {e}"),
        }
    }
}

impl std::error::Error for PoolError {}

/// One pool slot: an engine being built, or built and ready.
#[derive(Debug)]
enum Slot {
    /// A build for this upload is in flight on some thread; wait on the
    /// condvar.
    Building,
    /// Built and servable.
    Ready {
        engine: Arc<Engine>,
        /// Logical timestamp of the last resolve (LRU order).
        last_used: u64,
    },
}

#[derive(Debug)]
struct Inner {
    slots: HashMap<ProgramUpload, Slot>,
    /// Monotonic logical clock advanced on every touch; drives LRU
    /// eviction without wall-clock reads.
    clock: u64,
}

/// A capacity-bounded LRU pool of built engines. See the module docs
/// for the concurrency contract.
#[derive(Debug)]
pub struct EnginePool {
    /// The pre-warmed boot engine, pinned outside the LRU capacity (it
    /// may hold a persistent cache snapshot the uploads must not evict).
    default: Option<Arc<Engine>>,
    settings: PoolSettings,
    capacity: usize,
    inner: Mutex<Inner>,
    built: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl EnginePool {
    /// A pool holding `default` (pinned, not counted against
    /// `capacity`) and up to `capacity` uploaded-tenant engines built
    /// with `settings`. A zero capacity is clamped to one: a pool that
    /// cannot hold the engine it just built would thrash every batch.
    pub fn new(default: Option<Engine>, capacity: usize, settings: PoolSettings) -> EnginePool {
        EnginePool {
            default: default.map(Arc::new),
            settings,
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                clock: 0,
            }),
            built: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The pre-warmed default tenant, if the daemon booted with one.
    pub fn default_engine(&self) -> Option<&Engine> {
        self.default.as_deref()
    }

    /// Movement counters (hits/misses/evictions are lifetime totals;
    /// `resident` counts ready uploaded-tenant engines right now).
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.lock().expect("engine pool");
        let resident = inner
            .slots
            .values()
            .filter(|slot| matches!(slot, Slot::Ready { .. }))
            .count() as u64;
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident,
            capacity: self.capacity as u64,
        }
    }

    /// Resolves a batch's tenant slot to a servable engine: the default
    /// engine for `None`, a pooled or freshly built engine for an
    /// upload. Blocks while another thread builds the same upload.
    pub fn resolve(&self, upload: Option<&ProgramUpload>) -> Result<Arc<Engine>, PoolError> {
        let Some(upload) = upload else {
            return self.default.clone().ok_or(PoolError::NoDefault);
        };
        let mut inner = self.inner.lock().expect("engine pool");
        loop {
            inner.clock += 1;
            let now = inner.clock;
            let waiting = match inner.slots.get_mut(upload) {
                Some(Slot::Ready { engine, last_used }) => {
                    *last_used = now;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(engine));
                }
                Some(Slot::Building) => true,
                None => false,
            };
            if waiting {
                inner = self.built.wait(inner).expect("engine pool");
            } else {
                inner.slots.insert(upload.clone(), Slot::Building);
                break;
            }
        }
        drop(inner);

        // Build outside the lock: a slow typecheck must not block hits
        // on other tenants.
        let outcome = self.build(upload);

        let mut inner = self.inner.lock().expect("engine pool");
        let result = match outcome {
            Ok(engine) => {
                let engine = Arc::new(engine);
                inner.clock += 1;
                let now = inner.clock;
                inner.slots.insert(
                    upload.clone(),
                    Slot::Ready {
                        engine: Arc::clone(&engine),
                        last_used: now,
                    },
                );
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.evict_over_capacity(&mut inner, upload);
                Ok(engine)
            }
            Err(e) => {
                // Remove the in-flight marker so the upload can be
                // retried; a failed build must not poison the slot.
                inner.slots.remove(upload);
                Err(PoolError::Build(e))
            }
        };
        drop(inner);
        self.built.notify_all();
        result
    }

    /// Evicts least-recently-used ready engines until at most
    /// `capacity` remain, never evicting `keep` (the slot just
    /// inserted) or in-flight builds.
    fn evict_over_capacity(&self, inner: &mut Inner, keep: &ProgramUpload) {
        loop {
            let ready = inner
                .slots
                .values()
                .filter(|slot| matches!(slot, Slot::Ready { .. }))
                .count();
            if ready <= self.capacity {
                return;
            }
            let victim = inner
                .slots
                .iter()
                .filter(|(k, _)| *k != keep)
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { last_used, .. } => Some((k, *last_used)),
                    Slot::Building => None,
                })
                .min_by_key(|(_, last_used)| *last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { return };
            inner.slots.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs the full build pipeline on uploaded sources, lint gate
    /// included.
    fn build(&self, upload: &ProgramUpload) -> Result<Engine, BuildError> {
        let mut builder = Engine::builder()
            .program_source(&upload.program)?
            .predicates_source(&upload.predicates)?
            .config(self.settings.config)
            .static_analysis(AnalysisSettings::default());
        if let Some(workers) = self.settings.parallelism {
            builder = builder.parallelism(workers);
        }
        if let Some(capacity) = self.settings.cache_capacity {
            builder = builder.cache_capacity(capacity);
        }
        builder.build()
    }

    /// The worker budget the `hello` banner advertises: the default
    /// tenant's, or what pool-built engines will get.
    pub fn parallelism(&self) -> usize {
        match &self.default {
            Some(engine) => engine.parallelism(),
            None => self
                .settings
                .parallelism
                .unwrap_or_else(sling::default_parallelism),
        }
    }

    /// Consumes the pool, returning the default tenant's engine for
    /// further in-process use (`None` when the daemon booted without
    /// one, or while a connection handler still holds it).
    pub fn into_default(self) -> Option<Engine> {
        self.default.and_then(|arc| Arc::try_unwrap(arc).ok())
    }
}

/// FNV-1a over program source, a separator, and predicate source: the
/// pool's hash. A 64-bit content hash — no canonicalization, so the same
/// sources with different whitespace are distinct tenants (correct:
/// byte-identical uploads are the reuse contract a client can reason
/// about).
pub fn fingerprint(upload: &ProgramUpload) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(upload.program.as_bytes());
    eat(&[0xff]); // program/predicates boundary, not a valid UTF-8 byte
    eat(upload.predicates.as_bytes());
    hash
}

/// Hashes an upload by its [`fingerprint`], so a pool lookup hashes the
/// sources once and compares them only against slots of equal hash.
/// Uploads crafted to collide cost at most one source comparison per
/// resident engine: the pool holds at most its capacity.
impl Hash for ProgramUpload {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(fingerprint(self));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(node: &str) -> ProgramUpload {
        ProgramUpload {
            program: format!(
                "struct {node} {{ next: {node}*; }}
                 fn id(x: {node}*) -> {node}* {{ return x; }}"
            ),
            predicates: format!(
                "pred p_{node}(x: {node}*) := emp & x == nil
                   | exists u. x -> {node}{{next: u}} * p_{node}(u);"
            ),
        }
    }

    #[test]
    fn fingerprints_separate_program_from_predicates() {
        // Moving bytes across the program/predicates boundary must
        // change the key.
        let a = ProgramUpload {
            program: "ab".into(),
            predicates: "c".into(),
        };
        let b = ProgramUpload {
            program: "a".into(),
            predicates: "bc".into(),
        };
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
    }

    #[test]
    fn uploads_with_equal_fingerprints_get_their_own_engines() {
        // Two valid uploads whose fingerprints collide (found by a
        // Pollard-rho search over the trailing comment): B returns nil,
        // A returns its argument.
        let program = |ret: &str| {
            format!("struct N {{ next: N*; }}\nfn f(x: N*) -> N* {{ return {ret}; }}\n")
        };
        let predicates = |tag: &str| {
            format!(
                "pred p(x: N*) := emp & x == nil | exists u. x -> N{{next: u}} * p(u);\n// {tag}"
            )
        };
        let a = ProgramUpload {
            program: program("x"),
            predicates: predicates("785c465af365e6fe"),
        };
        let b = ProgramUpload {
            program: program("null"),
            predicates: predicates("85cfa8d754d14da3"),
        };
        assert_eq!(fingerprint(&a), 0x5772_220b_a168_1662);
        assert_eq!(fingerprint(&a), fingerprint(&b));

        let pool = EnginePool::new(None, 4, PoolSettings::default());
        let ea = pool.resolve(Some(&a)).expect("a builds");
        let eb = pool.resolve(Some(&b)).expect("b builds");
        assert!(!Arc::ptr_eq(&ea, &eb), "b must not be served by a's engine");
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.resident), (0, 2, 2));
        assert!(Arc::ptr_eq(&ea, &pool.resolve(Some(&a)).expect("a hits")));
        assert!(Arc::ptr_eq(&eb, &pool.resolve(Some(&b)).expect("b hits")));
    }

    #[test]
    fn resolve_reuses_and_evicts_lru() {
        let pool = EnginePool::new(None, 2, PoolSettings::default());
        let [a, b, c] = [corpus("PoolA"), corpus("PoolB"), corpus("PoolC")];

        let ea1 = pool.resolve(Some(&a)).expect("build a");
        let _eb = pool.resolve(Some(&b)).expect("build b");
        let ea2 = pool.resolve(Some(&a)).expect("hit a");
        assert!(Arc::ptr_eq(&ea1, &ea2), "hit must reuse the built engine");

        // Capacity 2: building c evicts the LRU tenant, which is b
        // (a was touched more recently).
        let ec1 = pool.resolve(Some(&c)).expect("build c");
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 3, 1));
        assert_eq!((stats.resident, stats.capacity), (2, 2));

        // b rebuilt = another miss, evicting a (now the LRU — its last
        // touch predates c's build); c survives and hits.
        pool.resolve(Some(&b)).expect("rebuild b");
        let ec2 = pool.resolve(Some(&c)).expect("c still resident");
        assert!(Arc::ptr_eq(&ec1, &ec2));
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 4, 2));
    }

    #[test]
    fn no_default_is_typed_and_failed_builds_do_not_poison() {
        let pool = EnginePool::new(None, 4, PoolSettings::default());
        assert!(matches!(pool.resolve(None), Err(PoolError::NoDefault)));

        let hostile = ProgramUpload {
            program: "fn broken( {".into(),
            predicates: String::new(),
        };
        assert!(matches!(
            pool.resolve(Some(&hostile)),
            Err(PoolError::Build(_))
        ));
        // The failed fingerprint is retryable (fails again, typed), and
        // a good upload still builds.
        assert!(matches!(
            pool.resolve(Some(&hostile)),
            Err(PoolError::Build(_))
        ));
        pool.resolve(Some(&corpus("PoolOk"))).expect("healthy pool");
        let stats = pool.stats();
        assert_eq!(stats.resident, 1);
    }

    #[test]
    fn lint_gate_rejects_hostile_uploads_by_default() {
        let pool = EnginePool::new(None, 4, PoolSettings::default());
        // Use-before-init: `y` is read on every path without ever being
        // written. The lint gate denies this at build time.
        let hostile = ProgramUpload {
            program: "fn f() -> int { var y: int; return y; }".into(),
            predicates: String::new(),
        };
        match pool.resolve(Some(&hostile)) {
            Err(PoolError::Build(sling::BuildError::Rejected(diags))) => {
                assert!(diags.has_deny());
                assert!(diags
                    .iter()
                    .any(|d| d.code == sling::lint_codes::USE_BEFORE_INIT));
            }
            other => panic!("expected a rejected build, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_same_upload_builds_once() {
        let pool = Arc::new(EnginePool::new(None, 4, PoolSettings::default()));
        let upload = corpus("PoolShared");
        let engines: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    let upload = upload.clone();
                    scope.spawn(move || pool.resolve(Some(&upload)).expect("build or wait"))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pair in engines.windows(2) {
            assert!(
                Arc::ptr_eq(&pair[0], &pair[1]),
                "all threads share one engine"
            );
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 1, "exactly one build ran");
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn into_default_returns_the_boot_engine() {
        let upload = corpus("PoolBoot");
        let engine = Engine::builder()
            .program_source(&upload.program)
            .unwrap()
            .predicates_source(&upload.predicates)
            .unwrap()
            .build()
            .unwrap();
        let pool = EnginePool::new(Some(engine), 2, PoolSettings::default());
        assert!(pool.default_engine().is_some());
        assert!(pool.resolve(None).is_ok());
        assert!(pool.into_default().is_some());

        let empty = EnginePool::new(None, 2, PoolSettings::default());
        assert!(empty.into_default().is_none());
    }
}
