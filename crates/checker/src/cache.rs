//! The memoizing entailment cache.
//!
//! SLING's inference loop asks the model checker the same kind of
//! question over and over: "does this sub-heap satisfy this predicate
//! formula?" Sub-heaps recur constantly — the same list segment shows up
//! at entry and exit, across loop iterations, and across the many target
//! functions of a batch analysis. [`CheckCache`] memoizes the reduction
//! `s, h ⊩ F ⇝ h', ι` keyed on a *canonical form* of the
//! `(sub-heap shape, formula)` pair, so a repeated query — even one whose
//! concrete heap addresses differ — is answered without re-running the
//! search.
//!
//! # Canonicalization
//!
//! The key must be insensitive to the accidents of a particular run:
//!
//! * **Addresses** are renamed to dense canonical ids by a breadth-first
//!   walk of the heap rooted at the formula's free variables (in name
//!   order); unreached cells follow in address order. Two isomorphic
//!   sub-heaps therefore produce the same key, and the checker's verdict
//!   transfers because the reduction judgment is invariant under
//!   bijective renaming of addresses.
//! * **Bound variables** of the formula are renamed to positional names,
//!   so `∃u3. sll(u3)` and `∃u7. sll(u7)` share an entry.
//! * Pointers that leave the sub-heap (boundary pointers) get their own
//!   canonical ids in first-encounter order, preserving their equality
//!   pattern without leaking raw addresses into the key.
//!
//! A key has two parts. The *formula part* is the formula through
//! [`sling_logic::write_symheap`] (the printer behind `Display`) with
//! binders spelled `$c<i>`, then `\n;`. The *model part* is the free
//! variables' values, `\n;`, then the cells in canonical order; writing
//! a cell assigns ids to the cells it points to, so the list of assigned
//! cells is also the breadth-first queue. The formula part depends on
//! the formula alone, and the model part on the heap and the formula's
//! free-variable list alone. The printer never writes `\n`, so the two
//! parts concatenate to one unambiguous text, which the unit test
//! `canonical_key_text_is_pinned` holds byte for byte.
//!
//! Cached entries store the residual domain and existential
//! instantiation in canonical space; a hit rehydrates them through the
//! querying model's own renaming, setting the residual's bits over the
//! queried cells (see [`crate::CheckCtx::check_prepared`]).
//!
//! `InferAtom` checks each candidate formula on every sub-model, and
//! each sub-heap under many candidates, so a part is written once and
//! shared: a [`PreparedFormula`] writes its part once for every heap it
//! is checked on ([`crate::CheckCtx::check_prepared`]), and a
//! [`ModelParts`] keeps the model parts one heap has written, one per
//! free-variable list. Each part is an `Arc<str>` fingerprinted once, so
//! a key is two shared parts and a fingerprint combined from theirs: a
//! lookup allocates nothing, a store clones two pointers, and entries
//! with a part in common hold one copy of its text. Snapshot files store
//! each distinct part once too.
//!
//! # Concurrency
//!
//! The cache is sharded: entries are distributed over [`SHARD_COUNT`]
//! independent `Mutex<HashMap>` shards selected by the key's precomputed
//! fingerprint, so concurrent checker threads (a parallel engine batch)
//! contend only when they touch the same shard. A part's fingerprint
//! mixes its text a word at a time, and a key's mixes the query scope
//! and its parts' fingerprints; both end in an avalanche step and never
//! leave the process (snapshot loads recompute them). Hit/miss counters are
//! per-shard atomics; [`CheckCache::stats`] sums them, so totals stay
//! exact under any interleaving.
//!
//! # Eviction
//!
//! Each shard holds at most its share of the capacity (see
//! [`CheckCache::with_capacity`]). A store of a new key into a full shard
//! first evicts one entry, the first one the shard's map yields: an
//! order the keys' fingerprints set, unrelated to use. Nothing tracks
//! recency, so a hit only reads its entry. The bound keeps a
//! long-lived engine's memory in check; it is not a replacement policy,
//! and under sustained eviction a hot entry may go and be searched again
//! on its next miss.
//!
//! # Persistence
//!
//! Because canonical keys are stable across processes, a cache can be
//! snapshotted to disk and reloaded by a later run — see
//! [`crate::persist`]. Entries restored that way are *warm*; hits on
//! them are reported separately in [`CacheStats::warm_hits`].
//!
//! # Examples
//!
//! Two isomorphic models share one cache entry — the second query is
//! answered without re-running the search:
//!
//! ```
//! use sling_checker::{CheckCache, CheckCtx};
//! use sling_logic::{parse_formula, parse_predicates, FieldDef, FieldTy, PredEnv,
//!                   StructDef, Symbol, TypeEnv};
//! use sling_models::{Heap, HeapCell, Loc, Stack, StackHeapModel, Val};
//!
//! let node = Symbol::intern("MNode");
//! let mut types = TypeEnv::new();
//! types.define(StructDef {
//!     name: node,
//!     fields: vec![FieldDef { name: Symbol::intern("next"), ty: FieldTy::Ptr(node) }],
//! })?;
//! let mut preds = PredEnv::new();
//! for d in parse_predicates(
//!     "pred mlist(x: MNode*) := emp & x == nil | exists u. x -> MNode{next: u} * mlist(u);",
//! )? {
//!     preds.define(d)?;
//! }
//!
//! // A one-cell list headed by `x`, at a caller-chosen address.
//! let model = |base: u64| {
//!     let mut heap = Heap::new();
//!     heap.insert(Loc::new(base), HeapCell::new(node, vec![Val::Nil]));
//!     let mut stack = Stack::new();
//!     stack.bind(Symbol::intern("x"), Val::Addr(Loc::new(base)));
//!     StackHeapModel::new(stack, heap)
//! };
//!
//! let cache = CheckCache::new();
//! let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
//! let f = parse_formula("mlist(x)")?;
//! assert!(ctx.check(&model(1), &f).is_some()); // cold: runs the search
//! assert!(ctx.check(&model(9), &f).is_some()); // isomorphic: cache hit
//! assert_eq!(cache.stats().hits, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sling_logic::{SymHeap, Symbol};
use sling_models::{HeapCell, Loc, Stack, Val};

use crate::check::CellReduction;
use crate::inst::Instantiation;

/// Point-in-time counters of a [`CheckCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries answered by entries loaded from a persisted cache file
    /// (see [`crate::persist`]) — the warm-start subset of `hits`.
    pub warm_hits: u64,
    /// Queries that ran the full search (and seeded the cache).
    pub misses: u64,
    /// Entries currently stored.
    pub entries: u64,
    /// Entries evicted to stay inside the configured capacity.
    pub evictions: u64,
    /// Approximate bytes held by stored entries: per entry, its
    /// bookkeeping, its cached reduction and the text of both parts of
    /// its key, counted as if the entry held them alone. Entries share
    /// the parts they have in common, so for key text this is an upper
    /// bound.
    pub resident_bytes: u64,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0 when none).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// The counter movement since an `earlier` snapshot of the same
    /// cache (entry counts and resident bytes are absolute, not
    /// differenced).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            warm_hits: self.warm_hits.saturating_sub(earlier.warm_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            entries: self.entries,
            evictions: self.evictions.saturating_sub(earlier.evictions),
            resident_bytes: self.resident_bytes,
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} lookups ({:.1}%), {} entries",
            self.hits,
            self.lookups(),
            100.0 * self.hit_rate(),
            self.entries
        )?;
        if self.warm_hits > 0 {
            write!(f, ", {} warm", self.warm_hits)?;
        }
        if self.evictions > 0 {
            write!(f, ", {} evicted", self.evictions)?;
        }
        Ok(())
    }
}

/// Number of independent shards a [`CheckCache`] distributes its entries
/// over. Concurrent checker threads contend only when two lookups land on
/// the same shard.
pub const SHARD_COUNT: usize = 16;

/// FNV-1a over a byte slice — the hash of every fingerprint this crate
/// persists (environment fingerprints, snapshot checksums), so the
/// constants live in exactly one place.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a fold from an intermediate state.
pub(crate) fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Everything outside the `(model, formula)` pair that a verdict depends
/// on: the environment fingerprint and the search limits (a
/// budget-truncated "no" must not answer a full-budget query).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct QueryScope {
    /// Fingerprint of the `(TypeEnv, PredEnv)` pair.
    pub(crate) env_tag: u64,
    /// Search-node budget of the querying context.
    pub(crate) node_budget: u64,
    /// Unfolding slack of the querying context.
    pub(crate) fuel_slack: u32,
}

/// One part of a cache key as its writer or a snapshot load holds it:
/// the text, shared by every key built from the part, and the text's
/// fingerprint, computed once.
#[derive(Debug, Clone)]
pub(crate) struct KeyPart {
    fingerprint: u64,
    pub(crate) text: Arc<str>,
}

impl KeyPart {
    pub(crate) fn new(text: &str) -> KeyPart {
        KeyPart {
            fingerprint: text_fingerprint(text),
            text: text.into(),
        }
    }
}

/// The cache key: the query scope plus the text of the two parts of the
/// canonical form of the `(model, formula)` pair, with a fingerprint
/// over all three mixed from the parts' own. The fingerprint picks the
/// shard and feeds the hash table directly (via a pass-through hasher),
/// so no text is hashed on probes; equality still compares the parts
/// (one pointer compare when both keys share a part's text, which is
/// refcounted), so fingerprint collisions cannot alias entries. Cloning
/// a key costs two pointer bumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CacheKey {
    fingerprint: u64,
    pub(crate) scope: QueryScope,
    pub(crate) formula: Arc<str>,
    pub(crate) model: Arc<str>,
}

impl CacheKey {
    pub(crate) fn new(scope: QueryScope, formula: &KeyPart, model: &KeyPart) -> CacheKey {
        CacheKey {
            fingerprint: key_fingerprint(&scope, formula.fingerprint, model.fingerprint),
            scope,
            formula: formula.text.clone(),
            model: model.text.clone(),
        }
    }

    /// The shard this key belongs to. Uses high fingerprint bits, leaving
    /// the low bits (used by the hash table's bucket index) independent.
    fn shard(&self) -> usize {
        (self.fingerprint >> 48) as usize % SHARD_COUNT
    }
}

#[cfg(test)]
impl CacheKey {
    /// A key whose parts hold the given text.
    pub(crate) fn of(scope: QueryScope, formula: &str, model: &str) -> CacheKey {
        CacheKey::new(scope, &KeyPart::new(formula), &KeyPart::new(model))
    }

    /// The key text: the formula part, then the model part.
    pub(crate) fn text(&self) -> String {
        format!("{}{}", self.formula, self.model)
    }
}

/// One step of the fingerprint fold.
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(26) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The MurmurHash3 finalizer, so the high bits that pick the shard and
/// the low bits that pick the bucket both depend on every input bit.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Mixes a part's text a 64-bit word at a time, then avalanches. The
/// value lives only in memory: snapshots store the text and loads
/// recompute it, so the function may change freely.
fn text_fingerprint(text: &str) -> u64 {
    let mut h = mix(0, text.len() as u64);
    let mut words = text.as_bytes().chunks_exact(8);
    for word in &mut words {
        h = mix(
            h,
            u64::from_le_bytes(word.try_into().expect("8-byte chunk")),
        );
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut word = [0; 8];
        word[..rest.len()].copy_from_slice(rest);
        h = mix(h, u64::from_le_bytes(word));
    }
    avalanche(h)
}

/// Mixes the scope and the parts' fingerprints, then avalanches.
fn key_fingerprint(scope: &QueryScope, formula: u64, model: u64) -> u64 {
    let mut h = mix(scope.env_tag, scope.node_budget);
    h = mix(h, u64::from(scope.fuel_slack));
    avalanche(mix(mix(h, formula), model))
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

/// Hasher that passes the precomputed key fingerprint straight through.
#[derive(Debug, Default, Clone)]
struct FingerprintHasher(u64);

impl Hasher for FingerprintHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-fingerprint keys (unused in practice).
        self.0 = fnv1a_extend(self.0, bytes);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type FingerprintBuild = BuildHasherDefault<FingerprintHasher>;

/// One stored verdict plus its provenance: entries loaded from a
/// persisted cache file are *warm* and counted separately on hits.
#[derive(Debug, Clone)]
struct Entry {
    value: Option<CachedReduction>,
    warm: bool,
}

/// Fixed per-entry bookkeeping cost added to the measured payload when
/// accounting [`CacheStats::resident_bytes`].
const ENTRY_OVERHEAD: u64 = (std::mem::size_of::<CacheKey>() + std::mem::size_of::<Entry>()) as u64;

/// The approximate resident size of one entry, counting both key parts
/// in full as if the entry held them alone: a function of the entry,
/// which never changes while it is stored, so insert and removal account
/// it identically whatever other entries share its parts.
fn entry_bytes(key: &CacheKey, value: &Option<CachedReduction>) -> u64 {
    let payload = match value {
        None => 0,
        Some(red) => {
            red.residual.len() * std::mem::size_of::<u32>()
                + red.inst.len() * std::mem::size_of::<(CanonName, CanonVal)>()
        }
    };
    ENTRY_OVERHEAD + (key.formula.len() + key.model.len() + payload) as u64
}

/// The mutable interior of one shard: the map and its resident-byte
/// ledger, which move together under the shard lock.
#[derive(Debug, Default)]
struct ShardMap {
    entries: HashMap<CacheKey, Entry, FingerprintBuild>,
    resident_bytes: u64,
}

impl ShardMap {
    /// Inserts or replaces `key`'s entry with one map probe; a replaced
    /// entry's bytes go with it.
    fn insert(&mut self, key: CacheKey, entry: Entry) {
        self.resident_bytes += entry_bytes(&key, &entry.value);
        if let Some(old) = self.entries.insert(key.clone(), entry) {
            self.resident_bytes -= entry_bytes(&key, &old.value);
        }
    }

    /// The verdict and warmth stored under `key`, if any.
    fn get(&self, key: &CacheKey) -> Option<(Option<CachedReduction>, bool)> {
        let entry = self.entries.get(key)?;
        Some((entry.value.clone(), entry.warm))
    }

    /// Evicts the first entry the map yields, whichever that is; `false`
    /// when the shard is empty.
    fn evict_one(&mut self) -> bool {
        let Some(key) = self.entries.keys().next().cloned() else {
            return false;
        };
        let entry = self.entries.remove(&key).expect("a key just yielded");
        self.resident_bytes -= entry_bytes(&key, &entry.value);
        true
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.resident_bytes = 0;
    }
}

/// One independent slice of the cache: its own map and counters.
#[derive(Debug, Default)]
struct Shard {
    map: Mutex<ShardMap>,
    hits: AtomicU64,
    warm_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// A shared, thread-safe memo table for checker reductions, sharded for
/// concurrent use and bounded per shard: a store of a new key into a
/// full shard evicts one entry, whichever the shard's map yields first.
///
/// Create one per [`crate::CheckCtx`] scope (an engine, a batch run) and
/// pass it via [`crate::CheckCtx::with_cache`]. Both satisfiable and
/// unsatisfiable verdicts are cached.
#[derive(Debug)]
pub struct CheckCache {
    shards: Vec<Shard>,
    shard_capacity: usize,
}

impl Default for CheckCache {
    fn default() -> CheckCache {
        CheckCache::new()
    }
}

/// Default bound on stored entries; past it a store evicts one entry of
/// its shard (the working set of a corpus run stays far below).
const DEFAULT_CAPACITY: usize = 1 << 20;

impl CheckCache {
    /// An empty cache with the default capacity.
    pub fn new() -> CheckCache {
        CheckCache::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache retaining roughly `capacity` entries. The bound is
    /// enforced per shard ([`SHARD_COUNT`] shards of
    /// `capacity / SHARD_COUNT` entries each, rounded up so small
    /// capacities still cache), so the retained total can overshoot a
    /// capacity that is not a multiple of the shard count by at most
    /// `SHARD_COUNT - 1` entries.
    pub fn with_capacity(capacity: usize) -> CheckCache {
        CheckCache {
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            shard_capacity: capacity.div_ceil(SHARD_COUNT),
        }
    }

    /// Current counters, summed over every shard. Hit/miss totals are
    /// exact under concurrent use; `entries` and `resident_bytes` are
    /// point-in-time sums.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in &self.shards {
            stats.hits += shard.hits.load(Ordering::Relaxed);
            stats.warm_hits += shard.warm_hits.load(Ordering::Relaxed);
            stats.misses += shard.misses.load(Ordering::Relaxed);
            stats.evictions += shard.evictions.load(Ordering::Relaxed);
            let map = shard.map.lock().expect("cache lock");
            stats.entries += map.entries.len() as u64;
            stats.resident_bytes += map.resident_bytes;
        }
        stats
    }

    /// Drops all entries (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.map.lock().expect("cache lock").clear();
        }
    }

    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<Option<CachedReduction>> {
        let shard = &self.shards[key.shard()];
        let found = shard.map.lock().expect("cache lock").get(key);
        match &found {
            Some((_, warm)) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                if *warm {
                    shard.warm_hits.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
            }
        };
        found.map(|(value, _)| value)
    }

    /// Stores a freshly computed verdict. A new key into a full shard
    /// first evicts one other entry, the first the shard's map yields.
    pub(crate) fn store(&self, key: CacheKey, value: Option<CachedReduction>) {
        let shard = &self.shards[key.shard()];
        let mut map = shard.map.lock().expect("cache lock");
        if map.entries.len() >= self.shard_capacity && !map.entries.contains_key(&key) {
            if !map.evict_one() {
                return; // zero-capacity shard: nothing to evict into
            }
            shard.evictions.fetch_add(1, Ordering::Relaxed);
        }
        map.insert(key, Entry { value, warm: false });
    }

    /// Inserts an entry loaded from a persisted snapshot; hits on it
    /// are counted as warm starts ([`CacheStats::warm_hits`]). A key the
    /// cache already holds keeps its entry, live or warm: one key is one
    /// verdict. Warm inserts never evict: a new entry is dropped when
    /// its shard is at capacity. Returns whether the entry was inserted,
    /// so loaders count each restored entry once.
    pub(crate) fn store_warm(&self, key: CacheKey, value: Option<CachedReduction>) -> bool {
        let shard = &self.shards[key.shard()];
        let mut map = shard.map.lock().expect("cache lock");
        let inserted = map.entries.len() < self.shard_capacity && !map.entries.contains_key(&key);
        if inserted {
            map.insert(key, Entry { value, warm: true });
        }
        inserted
    }

    /// Calls `f` on every stored entry whose scope carries `env_tag`,
    /// for persistence. Shards are locked one at a time, so the visit is
    /// per-shard consistent (exact when no checker runs concurrently).
    pub(crate) fn for_each_entry(
        &self,
        env_tag: u64,
        mut f: impl FnMut(&CacheKey, &Option<CachedReduction>),
    ) {
        for shard in &self.shards {
            let map = shard.map.lock().expect("cache lock");
            for (key, entry) in &map.entries {
                if key.scope.env_tag == env_tag {
                    f(key, &entry.value);
                }
            }
        }
    }
}

/// A value in canonical space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CanonVal {
    /// The null pointer.
    Nil,
    /// An integer (kept verbatim: formulas may constrain it).
    Int(i64),
    /// The `id`-th cell of the canonical heap enumeration.
    InHeap(u32),
    /// The `id`-th distinct pointer that leaves the sub-heap.
    Dangling(u32),
}

/// How a cached instantiation names a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CanonName {
    /// Positional index into the formula's binder list.
    Binder(u32),
    /// A free variable of the formula (part of the key, so stable).
    Free(Symbol),
}

/// One memoized reduction, expressed in canonical space.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CachedReduction {
    pub(crate) residual: Vec<u32>,
    pub(crate) inst: Vec<(CanonName, CanonVal)>,
}

/// The formula part of a query's key, and the formula's free variables,
/// from whose values the model part is written.
#[derive(Debug)]
pub(crate) struct FormulaKey {
    pub(crate) part: KeyPart,
    /// The formula's free variables, sorted by name and deduplicated.
    pub(crate) free: Arc<[Symbol]>,
}

impl FormulaKey {
    /// Writes the formula with binders renamed positionally, then `\n;`.
    pub(crate) fn new(f: &SymHeap) -> FormulaKey {
        let mut text = String::with_capacity(128);
        // `$` cannot occur in source identifiers, so binder names cannot
        // clash with free ones.
        let _ = sling_logic::write_symheap(&mut text, f, Some("$c"));
        text.push_str("\n;");
        FormulaKey {
            part: KeyPart::new(&text),
            free: free_vars(f).into(),
        }
    }
}

/// A formula prepared for checking on many heaps
/// ([`crate::CheckCtx::check_prepared`]): it writes the formula part of
/// its cache keys on its first cached check, once for every heap it is
/// checked on, and never when no check is cached.
#[derive(Debug)]
pub struct PreparedFormula<'f> {
    pub(crate) formula: &'f SymHeap,
    pub(crate) key: OnceCell<FormulaKey>,
}

impl<'f> PreparedFormula<'f> {
    /// Prepares `formula`; nothing is written yet.
    pub fn new(formula: &'f SymHeap) -> PreparedFormula<'f> {
        PreparedFormula {
            formula,
            key: OnceCell::new(),
        }
    }
}

/// The model part of a query's key, written against one heap for one
/// free-variable list, with the renamings that translate a verdict
/// between the heap's cells and canonical space.
#[derive(Debug)]
pub(crate) struct ModelKey {
    /// The free-variable list the part was written for.
    free: Arc<[Symbol]>,
    pub(crate) part: KeyPart,
    /// Canonical id → position in the heap's cells.
    id_slots: Vec<u32>,
    /// Position in the heap's cells → canonical id.
    slot_ids: Vec<u32>,
    /// Dangling id → the address outside the heap.
    id_dangling: Vec<Loc>,
}

/// The model parts that checks on one heap have written, one per
/// free-variable list: all a model part depends on besides the heap.
/// Keep one per `(stack, cells)` pair and pass it to every
/// [`crate::CheckCtx::check_prepared`] on that pair, so a formula whose
/// free variables the heap has been keyed under before reuses that part.
#[derive(Debug, Default)]
pub struct ModelParts {
    written: Vec<ModelKey>,
}

impl ModelParts {
    /// The model part of the heap `stack` and `cells` for the list
    /// `free`, written on first use.
    pub(crate) fn get(
        &mut self,
        stack: &Stack,
        cells: &[(Loc, &HeapCell)],
        free: &Arc<[Symbol]>,
    ) -> &ModelKey {
        let at = match self.written.iter().position(|m| m.free == *free) {
            Some(at) => at,
            None => {
                self.written.push(ModelKey::new(stack, cells, free.clone()));
                self.written.len() - 1
            }
        };
        let model = &self.written[at];
        debug_assert_eq!(model.slot_ids.len(), cells.len(), "another heap's parts");
        model
    }
}

/// A stable fingerprint of the checking environments, mixed into cache
/// keys so a [`CheckCache`] shared between contexts with *different*
/// environments can never exchange verdicts. Both environments are
/// `BTreeMap`-backed, so their `Debug` output is deterministic for equal
/// contents. Long-lived engines compute this once at build time and pass
/// it via [`crate::CheckCtx`]'s `env_tag` field.
pub fn env_fingerprint(types: &sling_logic::TypeEnv, preds: &sling_logic::PredEnv) -> u64 {
    let text = format!("{types:?}\u{1}{preds:?}");
    fnv1a(text.as_bytes())
}

/// The environment tag snapshots carry: the [`env_fingerprint`] of a
/// `(TypeEnv, PredEnv)` pair, mixed into every cache key computed under
/// it. A snapshot answers only the tag it was saved under (see
/// [`crate::persist::load`]). Long-lived engines build one profile at
/// construction and pass it to every [`crate::persist`] call.
#[derive(Debug, Clone)]
pub struct EnvProfile {
    env_tag: u64,
}

impl EnvProfile {
    /// Profiles a `(TypeEnv, PredEnv)` pair.
    pub fn new(types: &sling_logic::TypeEnv, preds: &sling_logic::PredEnv) -> EnvProfile {
        EnvProfile {
            env_tag: env_fingerprint(types, preds),
        }
    }

    /// The environment tag ([`env_fingerprint`]): the value mixed into
    /// every cache key computed under this environment.
    pub fn env_tag(&self) -> u64 {
        self.env_tag
    }
}

/// Marks a heap cell that has no canonical id yet.
const UNSEEN: u32 = u32::MAX;

/// The state of one model part's writing: the text written so far and
/// the renamings it has fixed.
struct KeyWriter<'m> {
    text: String,
    /// The heap's cells in address order.
    cells: &'m [(Loc, &'m HeapCell)],
    /// Per cell, its canonical id ([`UNSEEN`] until assigned).
    slot_ids: Vec<u32>,
    /// Canonical id → position in `cells`; also the breadth-first queue
    /// of cells.
    id_slots: Vec<u32>,
    id_dangling: Vec<Loc>,
}

impl KeyWriter<'_> {
    /// Writes `val` in canonical form. An in-heap address without an id
    /// gets the next one (and joins the queue); an address outside the
    /// heap gets a dangling id on first sight.
    fn value(&mut self, val: Val) {
        let canon = match val {
            Val::Nil => CanonVal::Nil,
            Val::Int(k) => CanonVal::Int(k),
            Val::Addr(loc) => match self.cells.binary_search_by_key(&loc, |c| c.0) {
                Ok(slot) => CanonVal::InHeap(self.id_of(slot)),
                Err(_) => match self.id_dangling.iter().position(|d| *d == loc) {
                    Some(id) => CanonVal::Dangling(id as u32),
                    None => {
                        self.id_dangling.push(loc);
                        CanonVal::Dangling(self.id_dangling.len() as u32 - 1)
                    }
                },
            },
        };
        // `CanonVal`'s `Debug` spelling, which keys have always used.
        let (tag, n) = match canon {
            CanonVal::Nil => return self.text.push_str("Nil"),
            CanonVal::Int(k) => ("Int(", k),
            CanonVal::InHeap(id) => ("InHeap(", id.into()),
            CanonVal::Dangling(id) => ("Dangling(", id.into()),
        };
        self.text.push_str(tag);
        push_decimal(&mut self.text, n);
        self.text.push(')');
    }

    /// The canonical id of the cell in `slot`, assigning the next one if
    /// it has none.
    fn id_of(&mut self, slot: usize) -> u32 {
        if self.slot_ids[slot] == UNSEEN {
            self.slot_ids[slot] = self.id_slots.len() as u32;
            self.id_slots.push(slot as u32);
        }
        self.slot_ids[slot]
    }

    /// Writes the cell with canonical id `id`.
    fn cell(&mut self, id: usize) {
        let cell = self.cells[self.id_slots[id] as usize].1;
        self.text.push_str(cell.ty.as_str());
        self.text.push('{');
        for val in &cell.fields {
            self.value(*val);
            self.text.push(',');
        }
        self.text.push_str("};");
    }
}

/// Appends `n` in decimal, as `{n}` formats it.
fn push_decimal(text: &mut String, n: i64) {
    if n < 0 {
        text.push('-');
    }
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    let mut rest = n.unsigned_abs();
    loop {
        start -= 1;
        digits[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    text.extend(digits[start..].iter().map(|d| char::from(*d)));
}

/// The free variables of `f`, sorted (by name) and deduplicated.
fn free_vars(f: &SymHeap) -> Vec<Symbol> {
    let mut out = Vec::new();
    for atom in &f.spatial {
        atom.free_vars_into(&mut out);
    }
    for atom in &f.pure {
        atom.free_vars_into(&mut out);
    }
    out.retain(|v| !f.exists.contains(v));
    out.sort_unstable();
    out.dedup();
    out
}

impl ModelKey {
    /// Writes the model part of the heap `stack` and `cells` (in address
    /// order) for the free-variable list `free`: each variable's value,
    /// `\n;`, then the cells in id order, breadth-first from the
    /// variables' values and then unreached cells in address order. Ids
    /// are assigned as values are written, so dangling ids follow
    /// first-write order too.
    fn new(stack: &Stack, cells: &[(Loc, &HeapCell)], free: Arc<[Symbol]>) -> ModelKey {
        let mut w = KeyWriter {
            text: String::with_capacity(16 * free.len() + 32 * cells.len() + 2),
            cells,
            slot_ids: vec![UNSEEN; cells.len()],
            id_slots: Vec::with_capacity(cells.len()),
            id_dangling: Vec::new(),
        };
        for v in free.iter() {
            w.text.push_str(v.as_str());
            match stack.get(*v) {
                Some(val) => {
                    w.text.push('=');
                    w.value(val);
                }
                None => w.text.push_str("=?"),
            }
            w.text.push(',');
        }
        w.text.push_str("\n;");
        // Writing a cell assigns ids to the cells it points to, so
        // `id_slots` is the breadth-first queue; once it runs dry, the
        // unreached cells join it in address order.
        let mut next = 0;
        while next < w.id_slots.len() {
            w.cell(next);
            next += 1;
        }
        for slot in 0..cells.len() {
            w.id_of(slot);
        }
        for id in next..w.id_slots.len() {
            w.cell(id);
        }
        ModelKey {
            free,
            part: KeyPart::new(&w.text),
            id_slots: w.id_slots,
            slot_ids: w.slot_ids,
            id_dangling: w.id_dangling,
        }
    }

    /// Translates a fresh reduction of a formula with existentials
    /// `binders` on `cells` into canonical space for storage. Returns
    /// `None` when a value falls outside the canonical frame (cannot
    /// happen for reductions of the keyed query; guarded anyway so a
    /// surprise degrades to "don't cache" instead of a wrong entry).
    pub(crate) fn encode(
        &self,
        binders: &[Symbol],
        cells: &[(Loc, &HeapCell)],
        r: &CellReduction,
    ) -> Option<CachedReduction> {
        // Residual ids in address order of their cells.
        let residual: Vec<u32> = (0..cells.len())
            .filter(|&slot| r.is_residual(slot))
            .map(|slot| self.slot_ids[slot])
            .collect();
        let mut inst = Vec::with_capacity(r.inst.len());
        for (sym, val) in r.inst.iter() {
            let name = match binders.iter().position(|b| *b == sym) {
                Some(i) => CanonName::Binder(i as u32),
                None => CanonName::Free(sym),
            };
            let cval = match val {
                Val::Nil => CanonVal::Nil,
                Val::Int(k) => CanonVal::Int(k),
                Val::Addr(loc) => match cells.binary_search_by_key(&loc, |c| c.0) {
                    Ok(slot) => CanonVal::InHeap(self.slot_ids[slot]),
                    Err(_) => {
                        CanonVal::Dangling(self.id_dangling.iter().position(|d| *d == loc)? as u32)
                    }
                },
            };
            inst.push((name, cval));
        }
        Some(CachedReduction { residual, inst })
    }

    /// Rehydrates a stored verdict of a formula with existentials
    /// `binders` against `cells`.
    pub(crate) fn decode(
        &self,
        binders: &[Symbol],
        cells: &[(Loc, &HeapCell)],
        c: &CachedReduction,
    ) -> CellReduction {
        let mut residual = vec![0u64; cells.len().div_ceil(64)];
        for id in &c.residual {
            let slot = self.id_slots[*id as usize] as usize;
            residual[slot / 64] |= 1 << (slot % 64);
        }
        let inst = Instantiation::from_bindings(c.inst.iter().filter_map(|(name, cval)| {
            let sym = match name {
                CanonName::Binder(i) => *binders.get(*i as usize)?,
                CanonName::Free(s) => *s,
            };
            let val = match cval {
                CanonVal::Nil => Val::Nil,
                CanonVal::Int(k) => Val::Int(*k),
                CanonVal::InHeap(id) => Val::Addr(cells[self.id_slots[*id as usize] as usize].0),
                CanonVal::Dangling(id) => Val::Addr(self.id_dangling[*id as usize]),
            };
            Some((sym, val))
        }));
        CellReduction {
            covered: cells.len() - c.residual.len(),
            residual,
            inst,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sling_logic::{
        parse_formula, parse_predicates, Expr, FieldDef, FieldTy, PredEnv, StructDef, TypeEnv,
    };
    use sling_models::{Heap, Stack, StackHeapModel};

    use crate::CheckCtx;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn envs() -> (TypeEnv, PredEnv) {
        let node = sym("CNode");
        let mut types = TypeEnv::new();
        types
            .define(StructDef {
                name: node,
                fields: vec![FieldDef {
                    name: sym("next"),
                    ty: FieldTy::Ptr(node),
                }],
            })
            .unwrap();
        let mut preds = PredEnv::new();
        for d in parse_predicates(
            "pred clist(x: CNode*) := emp & x == nil
               | exists u. x -> CNode{next: u} * clist(u);",
        )
        .unwrap()
        {
            preds.define(d).unwrap();
        }
        (types, preds)
    }

    /// The cache key of checking `f` against the whole of `m`.
    fn key_of(m: &StackHeapModel, f: &SymHeap, scope: QueryScope) -> CacheKey {
        let cells: Vec<(Loc, &HeapCell)> = m.heap.iter().collect();
        slice_key(&m.stack, &cells, f, scope)
    }

    /// The cache key of checking `f` against the heap `cells`.
    fn slice_key(
        stack: &Stack,
        cells: &[(Loc, &HeapCell)],
        f: &SymHeap,
        scope: QueryScope,
    ) -> CacheKey {
        let formula = FormulaKey::new(f);
        let model = ModelKey::new(stack, cells, formula.free.clone());
        CacheKey::new(scope, &formula.part, &model.part)
    }

    /// `x` heads an `n`-cell list whose addresses start at `base`.
    fn list_model(n: u64, base: u64) -> StackHeapModel {
        let mut heap = Heap::new();
        for i in 0..n {
            let next = if i + 1 < n {
                Val::Addr(Loc::new(base + i + 1))
            } else {
                Val::Nil
            };
            heap.insert(Loc::new(base + i), HeapCell::new(sym("CNode"), vec![next]));
        }
        let mut stack = Stack::new();
        let head = if n == 0 {
            Val::Nil
        } else {
            Val::Addr(Loc::new(base))
        };
        stack.bind(sym("x"), head);
        StackHeapModel::new(stack, heap)
    }

    #[test]
    fn isomorphic_models_share_a_key() {
        let f = parse_formula("clist(x)").unwrap();
        let scope = QueryScope::default();
        let a = key_of(&list_model(3, 1), &f, scope);
        let b = key_of(&list_model(3, 100), &f, scope);
        assert_eq!(a, b);
        let c = key_of(&list_model(4, 1), &f, scope);
        assert_ne!(a, c, "different shapes must differ");
    }

    #[test]
    fn binder_names_do_not_matter() {
        let m = list_model(2, 1);
        let scope = QueryScope::default();
        let f1 = parse_formula("exists u3. x -> CNode{next: u3} * clist(u3)").unwrap();
        let f2 = parse_formula("exists w9. x -> CNode{next: w9} * clist(w9)").unwrap();
        assert_eq!(key_of(&m, &f1, scope), key_of(&m, &f2, scope));
    }

    /// Pins the literal key text, the formula part then the model part,
    /// of queries that between them reach every branch of the part
    /// writers and the formula printer. Snapshot files store the parts,
    /// so changing an expected string here changes the snapshot format
    /// and needs a `FORMAT_VERSION` bump in `persist.rs`.
    #[test]
    fn canonical_key_text_is_pinned() {
        use sling_logic::{PureAtom, SpatialAtom};
        let key = |m: &StackHeapModel, f: &SymHeap| key_of(m, f, QueryScope::default()).text();

        // Binders, one listed twice (each copy prints at its last
        // position), a points-to atom with fields, every `Expr` form and
        // every pure relation.
        let mut f = parse_formula(
            "exists u, w. x -> CNode{next: u, val: nil} * clist(w, z) \
             & y == -(z + 1) & y != (2 * z) - w & u < k & z <= w",
        )
        .unwrap();
        f.exists = vec![sym("u"), sym("u"), sym("w")];
        f.pure.push(PureAtom::Eq(Expr::var("k"), Expr::Int(-3)));
        assert!(matches!(f.spatial[0], SpatialAtom::PointsTo { .. }));
        // `y` is free but unbound; 0x14 holds one dangling address in
        // two fields; 0x05 and 0x1e are unreached from the free
        // variables, so they follow the BFS cells in address order.
        let cell = |fields: Vec<Val>| HeapCell::new(sym("CNode"), fields);
        let addr = |raw: u64| Val::Addr(Loc::new(raw));
        let mut heap = Heap::new();
        heap.insert(Loc::new(0x05), cell(vec![addr(0x4d), Val::Int(-8)]));
        heap.insert(Loc::new(0x0a), cell(vec![addr(0x14), Val::Int(7)]));
        heap.insert(Loc::new(0x14), cell(vec![addr(0x63), addr(0x63)]));
        heap.insert(Loc::new(0x1e), cell(vec![addr(0x0a), Val::Nil]));
        let mut stack = Stack::new();
        stack.bind(sym("k"), Val::Int(-4));
        stack.bind(sym("x"), addr(0x0a));
        stack.bind(sym("z"), Val::Int(5));
        assert_eq!(
            key(&StackHeapModel::new(stack, heap), &f),
            "exists $c1, $c1, $c2. x -> CNode{next: $c1, val: nil} * clist($c2, z) \
             & y == -(z + 1) & y != (2 * z) - $c2 & $c1 < k & z <= $c2 & k == -3\n\
             ;k=Int(-4),x=InHeap(0),y=?,z=Int(5),\n\
             ;CNode{InHeap(1),Int(7),};CNode{Dangling(0),Dangling(0),};\
             CNode{Dangling(1),Int(-8),};CNode{InHeap(0),Nil,};"
        );

        // No binders, no spatial atoms, stack values that leave the
        // (empty) heap.
        let mut stack = Stack::new();
        stack.bind(sym("x"), addr(0x32));
        stack.bind(sym("y"), addr(0x32));
        let f = parse_formula("emp & x != y & x == nil").unwrap();
        assert_eq!(
            key(&StackHeapModel::new(stack, Heap::new()), &f),
            "emp & x != y & x == nil\n;x=Dangling(0),y=Dangling(0),\n;"
        );
    }

    /// A random model over `CNode` cells at addresses `1..=12`: fields
    /// point into the heap, past it (dangling) or to nil; `x` and `y`
    /// hold such pointers and `k` an integer.
    fn random_model(rng: &mut StdRng) -> StackHeapModel {
        let val = |rng: &mut StdRng| match rng.gen_range(0..5) {
            0 => Val::Nil,
            _ => Val::Addr(Loc::new(rng.gen_range(1..=14u64))),
        };
        let mut heap = Heap::new();
        for raw in 1..=12u64 {
            if rng.gen_bool(0.6) {
                let next = val(rng);
                heap.insert(Loc::new(raw), HeapCell::new(sym("CNode"), vec![next]));
            }
        }
        let mut stack = Stack::new();
        stack.bind(sym("x"), val(rng));
        stack.bind(sym("y"), val(rng));
        stack.bind(sym("k"), Val::Int(rng.gen_range(-2..3i64)));
        StackHeapModel::new(stack, heap)
    }

    #[test]
    fn subset_slice_keys_equal_materialized_heap_keys() {
        // A query over some cells of a heap, given as a slice, must key
        // exactly like a model whose heap holds just those cells: the
        // inference path checks sub-heaps as slices, while snapshot
        // files and other callers key whole heaps.
        let formulas: Vec<SymHeap> = [
            "clist(x)",
            "exists u. x -> CNode{next: u} * clist(u)",
            "exists u, w. clist(u) * clist(w) & u == x & k == 1",
            "emp & x == y",
        ]
        .iter()
        .map(|f| parse_formula(f).unwrap())
        .collect();
        let mut rng = StdRng::seed_from_u64(0x5ce7);
        for round in 0..300 {
            let model = random_model(&mut rng);
            let cells: Vec<(Loc, &HeapCell)> = model.heap.iter().collect();
            let subset: Vec<(Loc, &HeapCell)> = cells
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.5))
                .collect();
            let heap: Heap = subset.iter().map(|&(l, c)| (l, c.clone())).collect();
            let materialized = StackHeapModel::new(model.stack.clone(), heap);
            for f in &formulas {
                let scope = QueryScope::default();
                let sliced = slice_key(&model.stack, &subset, f, scope);
                assert_eq!(
                    sliced.text(),
                    key_of(&materialized, f, scope).text(),
                    "round {round}: {f}"
                );
            }
        }
    }

    #[test]
    fn scope_is_part_of_the_key() {
        let m = list_model(2, 1);
        let f = parse_formula("clist(x)").unwrap();
        let a = key_of(
            &m,
            &f,
            QueryScope {
                env_tag: 1,
                node_budget: 100,
                fuel_slack: 4,
            },
        );
        let b = key_of(
            &m,
            &f,
            QueryScope {
                env_tag: 2,
                node_budget: 100,
                fuel_slack: 4,
            },
        );
        assert_ne!(a, b, "different env tags must not share entries");
    }

    #[test]
    fn cached_hit_equals_fresh_verdict() {
        let (types, preds) = envs();
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let plain = CheckCtx::new(&types, &preds);
        let f = parse_formula("clist(x)").unwrap();

        let m1 = list_model(3, 1);
        let first = ctx.check(&m1, &f).expect("holds");
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 1);

        // Isomorphic model at different addresses: must hit, and the
        // rehydrated reduction must match an uncached check bit for bit.
        let m2 = list_model(3, 50);
        let hit = ctx.check(&m2, &f).expect("holds");
        assert_eq!(cache.stats().hits, 1);
        let fresh = plain.check(&m2, &f).expect("holds");
        assert_eq!(hit, fresh);
        assert_eq!(hit.covered, first.covered);
        assert!(hit.residual.is_empty());
    }

    #[test]
    fn negative_verdicts_are_cached() {
        let (types, preds) = envs();
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        // A 2-cycle never satisfies clist.
        let mut heap = Heap::new();
        heap.insert(
            Loc::new(1),
            HeapCell::new(sym("CNode"), vec![Val::Addr(Loc::new(2))]),
        );
        heap.insert(
            Loc::new(2),
            HeapCell::new(sym("CNode"), vec![Val::Addr(Loc::new(1))]),
        );
        let mut stack = Stack::new();
        stack.bind(sym("x"), Val::Addr(Loc::new(1)));
        let m = StackHeapModel::new(stack, heap);
        let f = parse_formula("clist(x)").unwrap();
        assert!(ctx.check(&m, &f).is_none());
        assert!(ctx.check(&m, &f).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn partial_reduction_rehydrates_residual() {
        let (types, preds) = envs();
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        // x -> a -> b, but also an unreachable extra cell: clist(x)
        // covers the chain, the stray cell is residue.
        let mk = |base: u64| {
            let mut m = list_model(2, base);
            m.heap.insert(
                Loc::new(base + 77),
                HeapCell::new(sym("CNode"), vec![Val::Nil]),
            );
            m
        };
        let f = parse_formula("clist(x)").unwrap();
        let r1 = ctx.check(&mk(1), &f).expect("holds");
        assert_eq!(r1.residual.len(), 1);
        let r2 = ctx.check(&mk(200), &f).expect("holds");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(r2.residual.len(), 1);
        assert!(
            r2.residual.contains(Loc::new(277)),
            "residue maps to the query's space"
        );
    }

    #[test]
    fn budget_limited_verdicts_do_not_poison_full_budget_queries() {
        let (types, preds) = envs();
        let cache = CheckCache::new();
        let starved = CheckCtx::with_cache(
            &types,
            &preds,
            crate::CheckConfig {
                node_budget: 1,
                fuel_slack: 0,
            },
            &cache,
        );
        let full = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("clist(x)").unwrap();
        // The starved context gives up early; whatever it caches must not
        // answer the full-budget query for the same shape.
        let _ = starved.check(&list_model(3, 1), &f);
        let red = full
            .check(&list_model(3, 50), &f)
            .expect("full budget proves it");
        assert!(red.residual.is_empty());
    }

    #[test]
    fn different_environments_never_share_entries() {
        // Same predicate *name*, different definition, one shared cache:
        // the env fingerprint must keep their entries apart.
        let (types, preds_real) = envs();
        let mut preds_empty_only = PredEnv::new();
        for d in parse_predicates("pred clist(x: CNode*) := emp & x == nil;").unwrap() {
            preds_empty_only.define(d).unwrap();
        }
        let cache = CheckCache::new();
        let real = CheckCtx::with_cache(&types, &preds_real, Default::default(), &cache);
        let degenerate =
            CheckCtx::with_cache(&types, &preds_empty_only, Default::default(), &cache);
        let f = parse_formula("clist(x)").unwrap();

        assert!(real.check(&list_model(2, 1), &f).is_some());
        // Under the emp-only definition an allocated list can never
        // satisfy clist(x); a cross-env cache hit would claim it does.
        assert!(degenerate.check(&list_model(2, 40), &f).is_none());
        assert_eq!(
            cache.stats().hits,
            0,
            "isomorphic shapes, different envs: no sharing"
        );
    }

    #[test]
    fn stats_since_subtracts() {
        let a = CacheStats {
            hits: 10,
            warm_hits: 2,
            misses: 4,
            entries: 9,
            evictions: 1,
            resident_bytes: 900,
        };
        let b = CacheStats {
            hits: 13,
            warm_hits: 6,
            misses: 5,
            entries: 11,
            evictions: 4,
            resident_bytes: 1100,
        };
        let d = b.since(&a);
        assert_eq!((d.hits, d.warm_hits, d.misses, d.entries), (3, 4, 1, 11));
        assert_eq!((d.evictions, d.resident_bytes), (3, 1100));
        assert_eq!(d.lookups(), 4);
    }

    #[test]
    fn capacity_bounds_entries() {
        let (types, preds) = envs();
        // Capacity is enforced per shard: one entry per shard here.
        let cache = CheckCache::with_capacity(SHARD_COUNT);
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("clist(x)").unwrap();
        for n in 0..(4 * SHARD_COUNT as u64) {
            let _ = ctx.check(&list_model(n, 1), &f);
        }
        assert!(cache.stats().entries <= SHARD_COUNT as u64);
    }

    #[test]
    fn tiny_capacities_still_cache() {
        // A sub-shard-count capacity rounds up to one entry per shard
        // instead of silently disabling retention.
        let (types, preds) = envs();
        let cache = CheckCache::with_capacity(2);
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("clist(x)").unwrap();
        let _ = ctx.check(&list_model(3, 1), &f);
        let _ = ctx.check(&list_model(3, 50), &f);
        let stats = cache.stats();
        assert!(stats.entries >= 1, "{stats:?}");
        assert_eq!(stats.hits, 1, "isomorphic re-query must hit: {stats:?}");
    }

    #[test]
    fn stats_sum_exactly_under_concurrent_use() {
        // Several threads hammer one shared cache with overlapping shape
        // sets; per-shard counters must sum to exactly the number of
        // lookups issued, and every shape must end up cached once.
        let (types, preds) = envs();
        let cache = CheckCache::new();
        let f = parse_formula("clist(x)").unwrap();
        const THREADS: u64 = 8;
        const SHAPES: u64 = 24;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (cache, types, preds, f) = (&cache, &types, &preds, &f);
                s.spawn(move || {
                    let ctx = CheckCtx::with_cache(types, preds, Default::default(), cache);
                    for n in 0..SHAPES {
                        // Offset the start so threads collide on shapes
                        // mid-flight rather than in lockstep.
                        let shape = (n + t * 3) % SHAPES;
                        let _ = ctx.check(&list_model(shape, 1), f);
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            stats.lookups(),
            THREADS * SHAPES,
            "every lookup must be counted exactly once: {stats:?}"
        );
        assert_eq!(
            stats.entries, SHAPES,
            "each distinct shape is cached exactly once: {stats:?}"
        );
        // At most one miss per (shape, racing thread) pair; in practice
        // nearly every shape misses once. Hits account for the rest.
        assert!(stats.misses >= SHAPES, "{stats:?}");
        assert_eq!(stats.hits, stats.lookups() - stats.misses);
    }

    #[test]
    fn evicted_key_misses_when_queried_again() {
        // One entry per shard: a second shape landing on the first's
        // shard evicts it, and querying the first again is a miss with
        // the correct verdict, never a stale or aliased answer.
        let (types, preds) = envs();
        let cache = CheckCache::with_capacity(SHARD_COUNT);
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("clist(x)").unwrap();
        let scope = QueryScope {
            env_tag: ctx.env_tag,
            node_budget: ctx.config.node_budget,
            fuel_slack: ctx.config.fuel_slack,
        };
        let shard_of = |n: u64| key_of(&list_model(n, 1), &f, scope).shard();
        let a = 1u64;
        let b = (2..64)
            .find(|n| shard_of(*n) == shard_of(a))
            .expect("some shape shares shard with a");

        let _ = ctx.check(&list_model(a, 1), &f); // miss, cached
        let _ = ctx.check(&list_model(b, 1), &f); // same shard: evicts a
        assert_eq!(cache.stats().evictions, 1);

        let before = cache.stats();
        let m = list_model(a, 7);
        let red = ctx.check(&m, &f).expect("still satisfiable");
        assert_eq!(Some(red), CheckCtx::new(&types, &preds).check(&m, &f));
        let after = cache.stats();
        assert_eq!(after.misses, before.misses + 1, "evicted key must miss");
    }

    #[test]
    fn eviction_matches_a_reference_model() {
        // Seeded random stores and lookups over more keys than the cache
        // holds, checked call by call against a per-shard map from each
        // resident key to the value last stored under it. The cache picks
        // its victims, so the model learns which key went and checks
        // only that exactly one other key did.
        const PER_SHARD: usize = 4;
        const KEYS: usize = 200;
        const CALLS: usize = 10_000;
        let cache = CheckCache::with_capacity(PER_SHARD * SHARD_COUNT);
        let keys: Vec<CacheKey> = (0..KEYS)
            .map(|i| {
                CacheKey::of(
                    QueryScope::default(),
                    &format!("f{}", i % 7),
                    &format!("m{i}"),
                )
            })
            .collect();
        let index: HashMap<CacheKey, usize> = keys
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, k)| (k, i))
            .collect();
        let value = |v: u64| {
            (!v.is_multiple_of(3)).then(|| CachedReduction {
                residual: (0..(v % 5) as u32).collect(),
                inst: vec![(CanonName::Binder(0), CanonVal::Nil); (v % 2) as usize],
            })
        };
        let resident = |s: usize| -> BTreeSet<usize> {
            let map = cache.shards[s].map.lock().unwrap();
            map.entries.keys().map(|k| index[k]).collect()
        };
        let mut model: Vec<BTreeMap<usize, u64>> = vec![BTreeMap::new(); SHARD_COUNT];
        let mut evictions = 0u64;
        let mut rng = 0x5eed_u64;
        for call in 0..CALLS {
            // splitmix64
            rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let i = (z >> 8) as usize % KEYS;
            let s = keys[i].shard();
            if z.is_multiple_of(2) {
                let v = z >> 40;
                cache.store(keys[i].clone(), value(v));
                let after = resident(s);
                assert!(
                    after.contains(&i),
                    "call {call}: stored key {i} is not resident"
                );
                if !model[s].contains_key(&i) && model[s].len() == PER_SHARD {
                    let gone: Vec<usize> = model[s]
                        .keys()
                        .filter(|k| !after.contains(k))
                        .copied()
                        .collect();
                    assert_eq!(gone.len(), 1, "call {call}: a full store evicted {gone:?}");
                    model[s].remove(&gone[0]);
                    evictions += 1;
                }
                model[s].insert(i, v);
            } else {
                let hit = cache.lookup(&keys[i]);
                assert_eq!(
                    hit,
                    model[s].get(&i).map(|v| value(*v)),
                    "call {call}: key {i}"
                );
            }

            // A resident store and a store into a shard with room evict
            // nothing; a new key into a full shard evicts one other key.
            assert_eq!(cache.stats().evictions, evictions, "call {call}");
            for (s, shard) in cache.shards.iter().enumerate() {
                let map = shard.map.lock().unwrap();
                assert!(map.entries.len() <= PER_SHARD, "call {call}: shard {s}");
                let held: BTreeSet<usize> = map.entries.keys().map(|k| index[k]).collect();
                assert!(held.iter().eq(model[s].keys()), "call {call}: shard {s}");
                let bytes: u64 = map
                    .entries
                    .iter()
                    .map(|(k, e)| entry_bytes(k, &e.value))
                    .sum();
                assert_eq!(map.resident_bytes, bytes, "call {call}: shard {s}");
            }
        }
        assert!(
            evictions > 1000,
            "the model must exercise eviction: {evictions}"
        );
    }

    #[test]
    fn resident_bytes_track_entries() {
        let (types, preds) = envs();
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("clist(x)").unwrap();
        assert_eq!(cache.stats().resident_bytes, 0);
        for n in 0..6 {
            let _ = ctx.check(&list_model(n, 1), &f);
        }
        let stats = cache.stats();
        assert!(stats.resident_bytes > 0);
        assert!(
            stats.resident_bytes >= stats.entries * ENTRY_OVERHEAD,
            "{stats:?}"
        );
        cache.clear();
        assert_eq!(cache.stats().resident_bytes, 0, "clear resets the ledger");
    }

    #[test]
    fn eviction_stress_keeps_accounting_exact_under_contention() {
        // Eight threads push a capacity-bounded cache far past its
        // limit with overlapping shape sets. Invariants: every lookup
        // is counted exactly once (hits + misses == issued), residency
        // never exceeds the capacity, evictions are observed, and every
        // answer equals a cold-search verdict.
        let (types, preds) = envs();
        const CAPACITY: usize = 2 * SHARD_COUNT; // 2 entries per shard
        const THREADS: u64 = 8;
        const SHAPES: u64 = 48;
        const PER_THREAD: u64 = 64;
        let cache = CheckCache::with_capacity(CAPACITY);
        let f = parse_formula("clist(x)").unwrap();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (cache, types, preds, f) = (&cache, &types, &preds, &f);
                s.spawn(move || {
                    let ctx = CheckCtx::with_cache(types, preds, Default::default(), cache);
                    let plain = CheckCtx::new(types, preds);
                    for i in 0..PER_THREAD {
                        let shape = (i * (t + 3)) % SHAPES;
                        let m = list_model(shape, 1);
                        let got = ctx.check(&m, f);
                        // A cached answer must never differ from a cold
                        // search — eviction may forget, not corrupt.
                        assert_eq!(got, plain.check(&m, f), "shape {shape}");
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            stats.lookups(),
            THREADS * PER_THREAD,
            "hits + misses must stay exact: {stats:?}"
        );
        assert!(
            stats.entries <= CAPACITY as u64,
            "resident entries exceed the configured capacity: {stats:?}"
        );
        assert!(
            stats.evictions > 0,
            "48 shapes through a 32-entry cache must evict: {stats:?}"
        );
        assert!(stats.resident_bytes > 0);

        // Re-querying a just-evicted shape is a miss, answered freshly
        // and correctly.
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let plain = CheckCtx::new(&types, &preds);
        let before = cache.stats();
        let mut saw_miss = false;
        for shape in 0..SHAPES {
            let m = list_model(shape, 5);
            assert_eq!(ctx.check(&m, &f), plain.check(&m, &f));
        }
        let after = cache.stats();
        saw_miss |= after.misses > before.misses;
        assert!(
            saw_miss,
            "with 48 shapes and 32 slots some re-query must miss: {after:?}"
        );
        assert!(after.entries <= CAPACITY as u64);
    }

    #[test]
    fn env_profile_tracks_per_predicate_change() {
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        assert_eq!(profile.env_tag(), env_fingerprint(&types, &preds));

        // Change the definition: same name, different tag.
        let mut changed = PredEnv::new();
        for d in parse_predicates("pred clist(x: CNode*) := emp & x == nil;").unwrap() {
            changed.define(d).unwrap();
        }
        let changed_profile = EnvProfile::new(&types, &changed);
        assert_ne!(changed_profile.env_tag(), profile.env_tag());
    }

    #[test]
    fn fingerprints_spread_over_shards() {
        let f = parse_formula("clist(x)").unwrap();
        let scope = QueryScope::default();
        let shards: std::collections::BTreeSet<usize> = (0..64)
            .map(|n| key_of(&list_model(n, 1), &f, scope).shard())
            .collect();
        assert!(
            shards.len() > SHARD_COUNT / 2,
            "64 distinct shapes should touch most of the {SHARD_COUNT} shards, got {}",
            shards.len()
        );
    }
}
