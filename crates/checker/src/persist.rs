//! Cross-run persistence for the entailment cache.
//!
//! The canonical keys of a [`CheckCache`] are stable across processes —
//! they contain no raw addresses, interner ids, or hash seeds — so a
//! cache populated by one run can warm the next. This module snapshots a
//! cache to a versioned binary file ([`save`]) and folds a snapshot into
//! a cache, fresh or live ([`load`]), turning corpus-scale workloads
//! into incremental ones: the second process over the same predicate
//! library starts with every previously established entailment already
//! answered.
//!
//! # File format (version 7)
//!
//! A fixed header — magic `SLNGCACH`, format version, FNV-1a checksum of
//! the body — followed by the body:
//!
//! ```text
//! env_tag: u64            ; the environment every entry was computed under
//! nparts: u64
//!   part*                 ; u32 length, then the UTF-8 text of one key part
//! nentries: u64
//!   entry*                ; node budget, fuel slack, formula part index,
//!                         ; model part index, verdict
//! ```
//!
//! A cache key is a formula part and a model part (see [`crate::cache`]),
//! and many entries share each: a formula is checked on many heaps, a
//! heap under many formulas. The table lists each distinct part once,
//! and an entry names its two parts by their positions in it, so loaded
//! keys share their parts too. An index past the table's end is
//! [`PersistError::Corrupted`].
//!
//! Everything is little-endian. Safety properties:
//!
//! * **Versioned**: a file written by an incompatible format version is
//!   rejected with [`PersistError::UnsupportedVersion`], never
//!   misparsed.
//! * **Checksummed**: torn writes and bit rot fail the body checksum and
//!   are rejected with [`PersistError::Corrupted`] (every read is also
//!   bounds-checked, so truncation cannot panic).
//! * **Environment-keyed**: a snapshot holds the verdicts of one
//!   environment, the struct declarations and predicate library it was
//!   saved under ([`EnvProfile::env_tag`]), and answers only that
//!   environment. A file with any other tag is rejected as a whole
//!   ([`PersistError::FingerprintMismatch`]), so after an edit to the
//!   types or the library an engine starts cold, and its next save
//!   replaces the file.
//!
//! Entries restored by [`load`] are marked *warm*: hits on them are
//! reported in [`CacheStats::warm_hits`](crate::CacheStats::warm_hits)
//! so callers can observe how much a warm start actually saved.
//!
//! Saves are atomic (write to a sibling temp file, then rename), so a
//! crash mid-save leaves any previous snapshot intact and concurrent
//! readers never observe a half-written file. Temp files stranded by a
//! crashed save are swept away by the next successful [`save`] or
//! [`load`] over the same path (only temps from other processes that
//! have sat untouched for at least a minute; in-flight saves — which
//! hold their temp for milliseconds — are never affected).
//!
//! # One fold
//!
//! [`load`] is the only way snapshot entries enter a cache, at boot and
//! in a live process alike: a key the cache already holds keeps its
//! entry, computed live or loaded earlier, and a new entry whose shard
//! is full is dropped rather than evicting anything. The outcome comes
//! back as counts ([`MergeStats`]), each restored entry counted once.
//! Keeping the resident entry loses nothing: a key covers the
//! environment, the search limits and the canonical query, and the
//! search is deterministic, so two entries with one key hold one
//! verdict.
//!
//! # Examples
//!
//! Round-trip an (empty) cache and observe the environment guard:
//!
//! ```
//! use sling_checker::{persist, CheckCache, EnvProfile};
//! use sling_logic::{FieldDef, FieldTy, PredEnv, StructDef, Symbol, TypeEnv};
//!
//! let profile = EnvProfile::new(&TypeEnv::new(), &PredEnv::new());
//! let path = std::env::temp_dir().join(format!("sling-doc-cache-{}.bin", std::process::id()));
//! let cache = CheckCache::new();
//! persist::save(&cache, &profile, &path)?;
//!
//! let restored = CheckCache::new();
//! assert_eq!(persist::load(&restored, &profile, &path)?.merged, 0);
//!
//! // A snapshot answers only the environment it was saved under.
//! let mut other_types = TypeEnv::new();
//! other_types.define(StructDef {
//!     name: Symbol::intern("DocNode"),
//!     fields: vec![FieldDef { name: Symbol::intern("next"), ty: FieldTy::Int }],
//! })?;
//! let other = EnvProfile::new(&other_types, &PredEnv::new());
//! assert!(matches!(
//!     persist::load(&restored, &other, &path),
//!     Err(persist::PersistError::FingerprintMismatch { .. })
//! ));
//! std::fs::remove_file(&path).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Engines wire this through
//! `EngineBuilder::cache_path(..)` / `Engine::save_cache()` /
//! `Engine::absorb_snapshot(..)` in the `sling` crate; this module is
//! the format layer underneath.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sling_logic::Symbol;

use crate::cache::{
    fnv1a, CacheKey, CachedReduction, CanonName, CanonVal, CheckCache, EnvProfile, KeyPart,
    QueryScope,
};

/// Leading bytes of every snapshot file.
const MAGIC: &[u8; 8] = b"SLNGCACH";

/// Current format version; bump on any layout change, including a
/// change to the canonical key text that `canonical_key_text_is_pinned`
/// in the cache's tests holds, and on any search change that turns a
/// stored "no" verdict into a "yes". Version 4: one environment tag per
/// file, and no predicate mentions per entry. Version 5: the same layout,
/// but the search cuts branches with more points-to goals than cells
/// without counting them against the node budget, so a query that ran
/// out of budget (a stored "no") may now find a carving. Version 6: a
/// table of the distinct key parts precedes the entries, and an entry
/// holds the indices of its formula part and model part instead of its
/// key text (their concatenation, which did not change). Version 7: the
/// same layout, but the search no longer tries a points-to goal with an
/// unbound root before a predicate goal whose arguments are all
/// unbound, so it can keep another carving of equal residue.
const FORMAT_VERSION: u32 = 7;

/// Why a snapshot file could not be loaded.
#[derive(Debug)]
pub enum PersistError {
    /// The file could not be read at all.
    Io(io::Error),
    /// The bytes are not a well-formed snapshot (bad magic, failed
    /// checksum, truncated or over-long body, invalid UTF-8, ...).
    Corrupted(String),
    /// The file is a snapshot, but written by an incompatible format
    /// version.
    UnsupportedVersion(u32),
    /// The snapshot was saved under a different environment (struct
    /// declarations or predicate library) than the loading one. Both
    /// feed every verdict, so nothing in the file is reused.
    FingerprintMismatch {
        /// The environment tag ([`EnvProfile::env_tag`]) the loading
        /// engine runs under.
        expected: u64,
        /// The tag recorded in the file.
        found: u64,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "cache snapshot I/O error: {e}"),
            PersistError::Corrupted(why) => write!(f, "cache snapshot corrupted: {why}"),
            PersistError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "cache snapshot format version {v} unsupported (this build reads {FORMAT_VERSION})"
                )
            }
            PersistError::FingerprintMismatch { expected, found } => write!(
                f,
                "cache snapshot was computed under a different environment \
                 (expected tag {expected:#018x}, file has {found:#018x})"
            ),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

/// Outcome of folding one snapshot into a cache with [`load`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Entries inserted.
    pub merged: u64,
    /// Entries skipped because the cache already held their key or
    /// their shard was at capacity.
    pub skipped: u64,
}

impl std::fmt::Display for MergeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} merged, {} skipped", self.merged, self.skipped)
    }
}

/// Snapshots every entry of `cache` computed under `profile`'s
/// environment to `path`, returning how many entries were written. The
/// write is atomic: a sibling temp file is renamed over `path` only
/// once fully written.
pub fn save(cache: &CheckCache, profile: &EnvProfile, path: &Path) -> io::Result<u64> {
    // The part table and the entries are written side by side, each
    // part the first time an entry names it.
    let mut table: HashMap<Arc<str>, u32> = HashMap::new();
    let mut parts = Vec::new();
    let mut entries = Vec::new();
    let mut written = 0u64;
    cache.for_each_entry(profile.env_tag(), |key, value| {
        write_u64(&mut entries, key.scope.node_budget);
        write_u32(&mut entries, key.scope.fuel_slack);
        for part in [&key.formula, &key.model] {
            let at = match table.get(part) {
                Some(at) => *at,
                None => {
                    let at = table.len() as u32;
                    table.insert(part.clone(), at);
                    write_bytes(&mut parts, part.as_bytes());
                    at
                }
            };
            write_u32(&mut entries, at);
        }
        match value {
            None => entries.push(0),
            Some(red) => {
                entries.push(1);
                write_u32(&mut entries, red.residual.len() as u32);
                for id in &red.residual {
                    write_u32(&mut entries, *id);
                }
                write_u32(&mut entries, red.inst.len() as u32);
                for (name, val) in &red.inst {
                    match name {
                        CanonName::Binder(i) => {
                            entries.push(0);
                            write_u32(&mut entries, *i);
                        }
                        CanonName::Free(sym) => {
                            entries.push(1);
                            write_bytes(&mut entries, sym.as_str().as_bytes());
                        }
                    }
                    match val {
                        CanonVal::Nil => entries.push(0),
                        CanonVal::Int(k) => {
                            entries.push(1);
                            write_u64(&mut entries, *k as u64);
                        }
                        CanonVal::InHeap(id) => {
                            entries.push(2);
                            write_u32(&mut entries, *id);
                        }
                        CanonVal::Dangling(id) => {
                            entries.push(3);
                            write_u32(&mut entries, *id);
                        }
                    }
                }
            }
        }
        written += 1;
    });
    let mut body = Vec::with_capacity(24 + parts.len() + entries.len());
    write_u64(&mut body, profile.env_tag());
    write_u64(&mut body, table.len() as u64);
    body.extend_from_slice(&parts);
    write_u64(&mut body, written);
    body.extend_from_slice(&entries);

    let mut file = Vec::with_capacity(MAGIC.len() + 12 + body.len());
    file.extend_from_slice(MAGIC);
    write_u32(&mut file, FORMAT_VERSION);
    write_u64(&mut file, fnv1a(&body));
    file.extend_from_slice(&body);

    // Atomic replace: a crash mid-write leaves the previous snapshot
    // intact, and concurrent loaders never see a torn file. The temp
    // name is unique per save (pid + counter), so concurrent saves to
    // the same path from one process cannot interleave on one temp
    // file — last rename wins with a complete snapshot.
    static SAVE_COUNTER: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        SAVE_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, &file)?;
    match fs::rename(&tmp, path) {
        Ok(()) => {
            sweep_stale_temps(path);
            Ok(written)
        }
        Err(e) => {
            fs::remove_file(&tmp).ok();
            Err(e)
        }
    }
}

/// How old a sibling temp file must be before the sweep treats it as
/// stranded by a crash. A live save holds its temp for milliseconds
/// (one `fs::write` + `fs::rename`), so a minute of age means its
/// writer is gone.
const STALE_TEMP_AGE: std::time::Duration = std::time::Duration::from_secs(60);

/// Removes temp files stranded next to `path` by *crashed* saves: a
/// crash between `fs::write` and `fs::rename` leaves `<stem>.tmp.<pid>.<n>`
/// behind forever, so every successful [`save`] and every [`load`]
/// sweeps the siblings. Two guards keep in-flight saves safe: temps of
/// the current process are never touched (a concurrent [`save`] on
/// another thread may be mid-write), and temps of other processes are
/// only removed once older than [`STALE_TEMP_AGE`] — a live sibling's
/// temp exists for milliseconds, a crashed one forever. Best-effort:
/// I/O errors here are ignored (the sweep is hygiene, not correctness).
fn sweep_stale_temps(path: &Path) {
    let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
        return;
    };
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let prefix = format!("{stem}.tmp.");
    let own_pid = std::process::id().to_string();
    let Ok(entries) = fs::read_dir(parent) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(&prefix) else {
            continue;
        };
        // rest is "<pid>.<counter>"; skip temps owned by this process.
        if rest.split('.').next() == Some(own_pid.as_str()) {
            continue;
        }
        let old_enough = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| std::time::SystemTime::now().duration_since(mtime).ok())
            .is_some_and(|age| age >= STALE_TEMP_AGE);
        if old_enough {
            fs::remove_file(entry.path()).ok();
        }
    }
}

/// Parses a snapshot saved under `profile`'s environment into its
/// entries. Structural problems (corruption, truncation, version skew)
/// and a different environment tag are errors. The cache is untouched:
/// [`load`] inserts the entries once the whole file has parsed.
fn parse_snapshot(
    bytes: &[u8],
    profile: &EnvProfile,
) -> Result<Vec<(CacheKey, Option<CachedReduction>)>, PersistError> {
    let mut r = Reader::new(bytes);

    let magic = r.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(PersistError::Corrupted("bad magic".into()));
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion(version));
    }
    let checksum = r.u64()?;
    let body = &bytes[r.pos..];
    if fnv1a(body) != checksum {
        return Err(PersistError::Corrupted("checksum mismatch".into()));
    }

    let env_tag = r.u64()?;
    if env_tag != profile.env_tag() {
        return Err(PersistError::FingerprintMismatch {
            expected: profile.env_tag(),
            found: env_tag,
        });
    }

    let nparts = r.u64()?;
    let mut parts = Vec::with_capacity(nparts.min(1 << 16) as usize);
    for _ in 0..nparts {
        parts.push(KeyPart::new(r.str()?));
    }
    let count = r.u64()?;
    // Parse fully before touching the cache, so a corrupted tail cannot
    // leave a half-loaded (but checksum-passing prefix) state behind.
    let mut entries = Vec::new();
    for _ in 0..count {
        let scope = QueryScope {
            env_tag,
            node_budget: r.u64()?,
            fuel_slack: r.u32()?,
        };
        let formula = r.part(&parts)?;
        let model = r.part(&parts)?;
        let value = match r.u8()? {
            0 => None,
            1 => {
                let n = r.u32()? as usize;
                let mut residual = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    residual.push(r.u32()?);
                }
                let n = r.u32()? as usize;
                let mut inst = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let name = match r.u8()? {
                        0 => CanonName::Binder(r.u32()?),
                        1 => CanonName::Free(Symbol::intern(r.str()?)),
                        t => {
                            return Err(PersistError::Corrupted(format!("bad name tag {t}")));
                        }
                    };
                    let val = match r.u8()? {
                        0 => CanonVal::Nil,
                        1 => CanonVal::Int(r.u64()? as i64),
                        2 => CanonVal::InHeap(r.u32()?),
                        3 => CanonVal::Dangling(r.u32()?),
                        t => {
                            return Err(PersistError::Corrupted(format!("bad value tag {t}")));
                        }
                    };
                    inst.push((name, val));
                }
                Some(CachedReduction { residual, inst })
            }
            t => return Err(PersistError::Corrupted(format!("bad verdict tag {t}"))),
        };
        entries.push((CacheKey::new(scope, formula, model), value));
    }
    if r.pos != bytes.len() {
        return Err(PersistError::Corrupted(
            "trailing bytes after entries".into(),
        ));
    }
    Ok(entries)
}

/// Folds the snapshot at `path` into `cache`, marking every restored
/// entry warm. A key the cache already holds keeps its entry (one key
/// is one verdict), and a new entry whose shard is full is dropped
/// rather than evicting anything; both count in [`MergeStats::skipped`].
///
/// The snapshot must have been saved under `profile`'s environment;
/// see [`PersistError`] for the rejection cases. A rejected file leaves
/// the cache untouched.
pub fn load(
    cache: &CheckCache,
    profile: &EnvProfile,
    path: &Path,
) -> Result<MergeStats, PersistError> {
    sweep_stale_temps(path);
    let bytes = fs::read(path)?;
    let mut stats = MergeStats::default();
    for (key, value) in parse_snapshot(&bytes, profile)? {
        if cache.store_warm(key, value) {
            stats.merged += 1;
        } else {
            stats.skipped += 1;
        }
    }
    Ok(stats)
}

fn write_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn write_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Bounds-checked little-endian reader over the snapshot bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|end| *end <= self.bytes.len())
            .ok_or_else(|| PersistError::Corrupted("unexpected end of file".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<&'a str, PersistError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| PersistError::Corrupted("invalid UTF-8 string".into()))
    }

    /// A key part named by its index in the file's part table.
    fn part<'p>(&mut self, parts: &'p [KeyPart]) -> Result<&'p KeyPart, PersistError> {
        let at = self.u32()?;
        parts.get(at as usize).ok_or_else(|| {
            PersistError::Corrupted(format!(
                "key part {at} past the table's {} parts",
                parts.len()
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CheckCtx;
    use sling_logic::{
        parse_formula, parse_predicates, FieldDef, FieldTy, PredEnv, StructDef, TypeEnv,
    };
    use sling_models::{Heap, HeapCell, Loc, Stack, StackHeapModel, Val};
    use std::path::PathBuf;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn envs() -> (TypeEnv, PredEnv) {
        let node = sym("PersistNode");
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
            "pred plist(x: PersistNode*) := emp & x == nil
               | exists u. x -> PersistNode{next: u} * plist(u);",
        )
        .unwrap()
        {
            preds.define(d).unwrap();
        }
        (types, preds)
    }

    fn list_model(n: u64, base: u64) -> StackHeapModel {
        let mut heap = Heap::new();
        for i in 0..n {
            let next = if i + 1 < n {
                Val::Addr(Loc::new(base + i + 1))
            } else {
                Val::Nil
            };
            heap.insert(
                Loc::new(base + i),
                HeapCell::new(sym("PersistNode"), vec![next]),
            );
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

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "sling-persist-test-{}-{name}.bin",
            std::process::id()
        ))
    }

    #[test]
    fn round_trip_restores_verdicts_and_counts_warm_hits() {
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        assert_eq!(ctx.env_tag, profile.env_tag());
        let f = parse_formula("plist(x)").unwrap();
        // Populate: positive verdicts of several shapes, one negative.
        for n in 0..4 {
            assert!(ctx.check(&list_model(n, 1), &f).is_some());
        }
        let mut cyc = list_model(2, 1);
        let c1 = Loc::new(1);
        cyc.heap.insert(
            Loc::new(2),
            HeapCell::new(sym("PersistNode"), vec![Val::Addr(c1)]),
        );
        assert!(ctx.check(&cyc, &f).is_none());
        let saved_stats = cache.stats();

        let path = temp_path("round-trip");
        let written = save(&cache, &profile, &path).unwrap();
        assert_eq!(written, saved_stats.entries);

        // A fresh cache in a "new process": every verdict is answered
        // warm, bit-identically to an uncached search.
        let warm = CheckCache::new();
        let loaded = load(&warm, &profile, &path).unwrap();
        assert_eq!(loaded.merged, written);
        assert_eq!(warm.stats().entries, saved_stats.entries);

        let warm_ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &warm);
        let plain = CheckCtx::new(&types, &preds);
        for n in 0..4 {
            // Different base addresses: isomorphic shapes still hit.
            let m = list_model(n, 400 + 10 * n);
            assert_eq!(warm_ctx.check(&m, &f), plain.check(&m, &f));
        }
        assert!(warm_ctx.check(&cyc, &f).is_none());
        let stats = warm.stats();
        assert_eq!(stats.misses, 0, "every query must be warm: {stats:?}");
        assert_eq!(stats.hits, 5);
        assert_eq!(stats.warm_hits, 5, "hits on loaded entries are warm");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fresh_entries_are_not_counted_warm() {
        let (types, preds) = envs();
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("plist(x)").unwrap();
        let _ = ctx.check(&list_model(2, 1), &f);
        let _ = ctx.check(&list_model(2, 70), &f);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.warm_hits), (1, 0));
    }

    #[test]
    fn mismatched_types_are_rejected_and_cache_untouched() {
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("plist(x)").unwrap();
        let _ = ctx.check(&list_model(3, 1), &f);

        let path = temp_path("fingerprint");
        save(&cache, &profile, &path).unwrap();

        // A different struct layout: the file is rejected as a whole.
        let mut other_types = TypeEnv::new();
        other_types
            .define(StructDef {
                name: sym("PersistNode"),
                fields: vec![
                    FieldDef {
                        name: sym("next"),
                        ty: FieldTy::Ptr(sym("PersistNode")),
                    },
                    FieldDef {
                        name: sym("extra"),
                        ty: FieldTy::Int,
                    },
                ],
            })
            .unwrap();
        let other_profile = EnvProfile::new(&other_types, &preds);
        let other = CheckCache::new();
        let err = load(&other, &other_profile, &path).unwrap_err();
        assert!(!err.to_string().is_empty());
        match err {
            PersistError::FingerprintMismatch { expected, found } => {
                assert_eq!(expected, other_profile.env_tag());
                assert_eq!(found, profile.env_tag());
            }
            unexpected => panic!("expected FingerprintMismatch, got {unexpected:?}"),
        }
        assert_eq!(other.stats().entries, 0, "rejected load must not insert");
        // Folding into a live cache is refused the same way.
        let live_entries = cache.stats().entries;
        assert!(matches!(
            load(&cache, &other_profile, &path),
            Err(PersistError::FingerprintMismatch { .. })
        ));
        assert_eq!(cache.stats().entries, live_entries);
        std::fs::remove_file(&path).ok();
    }

    /// `list_model` over an arbitrary node type.
    fn list_model_of(node: Symbol, n: u64, base: u64) -> StackHeapModel {
        let mut heap = Heap::new();
        for i in 0..n {
            let next = if i + 1 < n {
                Val::Addr(Loc::new(base + i + 1))
            } else {
                Val::Nil
            };
            heap.insert(Loc::new(base + i), HeapCell::new(node, vec![next]));
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
    fn edited_predicate_library_is_rejected_whole() {
        // Two independent predicates over one struct; the edit changes
        // only qlist, and the types stay. The snapshot still answers
        // only the library it was saved under, so nothing loads, the
        // rcell entry included.
        let node = sym("EditNode");
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
        let library = |qlist_base: &str| {
            let mut env = PredEnv::new();
            let src = format!(
                "pred qlist(x: EditNode*) := {qlist_base}
                   | exists u. x -> EditNode{{next: u}} * qlist(u);
                 pred rcell(x: EditNode*) := exists u. x -> EditNode{{next: u}};"
            );
            for d in parse_predicates(&src).unwrap() {
                env.define(d).unwrap();
            }
            env
        };
        let (v1, v2) = (library("emp & x == nil"), library("emp & x == x"));
        let saved = EnvProfile::new(&types, &v1);
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &v1, Default::default(), &cache);
        for (model, f) in [
            (list_model_of(node, 2, 1), "qlist(x)"),
            (list_model_of(node, 1, 9), "rcell(x)"),
        ] {
            assert!(ctx.check(&model, &parse_formula(f).unwrap()).is_some());
        }
        let path = temp_path("edited-library");
        assert_eq!(save(&cache, &saved, &path).unwrap(), 2);

        let edited = EnvProfile::new(&types, &v2);
        let warm = CheckCache::new();
        match load(&warm, &edited, &path) {
            Err(PersistError::FingerprintMismatch { expected, found }) => {
                assert_eq!((expected, found), (edited.env_tag(), saved.env_tag()));
            }
            other => panic!("expected FingerprintMismatch, got {other:?}"),
        }
        assert_eq!(warm.stats().entries, 0, "rejected load must not insert");
        // Under the library it was saved with, the file loads whole.
        assert_eq!(load(&warm, &saved, &path).unwrap().merged, 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_overlapping_snapshots_is_newest_wins_union() {
        // Two snapshots with one shared key and one private key each.
        // One key holds one verdict, so the shared key's value is the
        // same in both. Folding both gives the three-key union in either
        // order, and the shared key's second offer is skipped, so every
        // entry counts once.
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let scope = QueryScope {
            env_tag: profile.env_tag(),
            node_budget: 7,
            fuel_slack: 3,
        };
        let key = |text: &str| CacheKey::of(scope, text, "");
        let red = |ids: &[u32]| {
            Some(CachedReduction {
                residual: ids.to_vec(),
                inst: Vec::new(),
            })
        };

        let first = CheckCache::new();
        first.store(key("shared"), red(&[1]));
        first.store(key("only-first"), red(&[2]));
        let second = CheckCache::new();
        second.store(key("shared"), red(&[1]));
        second.store(key("only-second"), red(&[3]));

        let dir = std::env::temp_dir();
        let first_path = dir.join(format!("sling-merge-first-{}.snap", std::process::id()));
        let second_path = dir.join(format!("sling-merge-second-{}.snap", std::process::id()));
        save(&first, &profile, &first_path).unwrap();
        save(&second, &profile, &second_path).unwrap();

        for [earlier, later] in [[&first_path, &second_path], [&second_path, &first_path]] {
            let live = CheckCache::new();
            let earlier = load(&live, &profile, earlier).unwrap();
            let later = load(&live, &profile, later).unwrap();
            assert_eq!((earlier.merged, earlier.skipped), (2, 0));
            assert_eq!(
                (later.merged, later.skipped),
                (1, 1),
                "the shared key's second offer is skipped"
            );
            assert_eq!(live.stats().entries, earlier.merged + later.merged);
            for (text, residual) in [("shared", 1), ("only-first", 2), ("only-second", 3)] {
                let value = live.lookup(&key(text)).expect("in the union");
                assert_eq!(value.expect("positive").residual, vec![residual], "{text}");
            }
        }
        std::fs::remove_file(&first_path).ok();
        std::fs::remove_file(&second_path).ok();
    }

    #[test]
    fn merge_never_replaces_live_entries() {
        // Two values for one key cannot come out of checking; they are
        // handcrafted here so the test can see which entry stays.
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let scope = QueryScope {
            env_tag: profile.env_tag(),
            node_budget: 1,
            fuel_slack: 1,
        };
        let key = CacheKey::of(scope, "live-vs", "snapshot");
        let red = |ids: &[u32]| {
            Some(CachedReduction {
                residual: ids.to_vec(),
                inst: Vec::new(),
            })
        };
        let snapshot_cache = CheckCache::new();
        snapshot_cache.store(key.clone(), red(&[5]));
        let path = temp_path("live-wins");
        save(&snapshot_cache, &profile, &path).unwrap();

        // The live cache computed its own verdict for the same key.
        let live = CheckCache::new();
        live.store(key.clone(), red(&[8]));
        let stats = load(&live, &profile, &path).unwrap();
        assert_eq!((stats.merged, stats.skipped), (0, 1));
        let kept = live.lookup(&key).expect("still present");
        assert_eq!(
            kept.expect("positive").residual,
            vec![8],
            "a resident entry keeps its key"
        );
        assert_eq!(live.stats().warm_hits, 0, "and stays a live entry");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn merge_respects_capacity_without_evicting() {
        use crate::SHARD_COUNT;
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("plist(x)").unwrap();
        for n in 0..(4 * SHARD_COUNT as u64) {
            let _ = ctx.check(&list_model(n, 1), &f);
        }
        let path = temp_path("merge-capacity");
        let written = save(&cache, &profile, &path).unwrap();

        let tiny = CheckCache::with_capacity(SHARD_COUNT); // one entry per shard
        let stats = load(&tiny, &profile, &path).unwrap();
        assert_eq!(stats.merged, tiny.stats().entries);
        assert!(stats.merged < written);
        assert_eq!(stats.merged + stats.skipped, written);
        assert_eq!(
            tiny.stats().evictions,
            0,
            "merging must never evict to make room"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corruption_is_rejected_cleanly() {
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("plist(x)").unwrap();
        for n in 0..3 {
            let _ = ctx.check(&list_model(n, 1), &f);
        }
        let path = temp_path("corrupt");
        save(&cache, &profile, &path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flip one body byte: checksum must catch it.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        std::fs::write(&path, &flipped).unwrap();
        let fresh = CheckCache::new();
        assert!(matches!(
            load(&fresh, &profile, &path),
            Err(PersistError::Corrupted(_))
        ));
        assert_eq!(fresh.stats().entries, 0, "rejected load must not insert");
        // Folding into a live cache is refused the same way, and leaves
        // the live entries as they were.
        let live_entries = cache.stats().entries;
        assert!(matches!(
            load(&cache, &profile, &path),
            Err(PersistError::Corrupted(_))
        ));

        // Truncations anywhere must error, never panic — into a fresh
        // cache and into a live one.
        for cut in [0, 3, 9, 13, 19, 27, 35, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(
                load(&CheckCache::new(), &profile, &path).is_err(),
                "truncation at {cut} must be rejected"
            );
            assert!(
                load(&cache, &profile, &path).is_err(),
                "live-cache truncation at {cut} must be rejected"
            );
        }
        assert_eq!(cache.stats().entries, live_entries);

        // Not a snapshot at all.
        std::fs::write(&path, b"definitely not a cache").unwrap();
        assert!(matches!(
            load(&CheckCache::new(), &profile, &path),
            Err(PersistError::Corrupted(_))
        ));

        // A past or future format version is refused, not misparsed.
        for v in [1u32, 2, 3, 4, 5, 6, 99] {
            let mut versioned = good.clone();
            versioned[8..12].copy_from_slice(&v.to_le_bytes());
            std::fs::write(&path, &versioned).unwrap();
            assert!(matches!(
                load(&CheckCache::new(), &profile, &path),
                Err(PersistError::UnsupportedVersion(got)) if got == v
            ));
        }

        // A missing file surfaces as Io.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            load(&CheckCache::new(), &profile, &path),
            Err(PersistError::Io(_))
        ));
    }

    /// Where a snapshot's body starts: after the magic, the format
    /// version and the checksum.
    const BODY: usize = MAGIC.len() + 4 + 8;

    /// The part table of a snapshot file, in file order.
    fn part_table(bytes: &[u8]) -> Vec<&str> {
        let mut r = Reader::new(bytes);
        r.pos = BODY + 8; // past the environment tag
        let nparts = r.u64().unwrap();
        (0..nparts).map(|_| r.str().unwrap()).collect()
    }

    #[test]
    fn a_snapshot_lists_each_key_part_once() {
        // Two formulas on four heaps: each formula part is shared by four
        // entries, and each heap's model part by two (both formulas have
        // the free variables {x}). Every check writes its own parts, so
        // only the save can share them.
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        for f in ["plist(x)", "exists u. x -> PersistNode{next: u} * plist(u)"] {
            let f = parse_formula(f).unwrap();
            for n in 0..4 {
                let _ = ctx.check(&list_model(n, 1), &f);
            }
        }
        let path = temp_path("parts");
        assert_eq!(save(&cache, &profile, &path).unwrap(), 8);
        let bytes = std::fs::read(&path).unwrap();
        let table = part_table(&bytes);
        let distinct: std::collections::BTreeSet<&str> = table.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            table.len(),
            "a part listed twice: {table:?}"
        );
        assert_eq!(table.len(), 2 + 4, "{table:?}");

        // Loaded keys share their parts: entries with one formula hold
        // one allocation of its text, and so do entries on one heap.
        let warm = CheckCache::new();
        assert_eq!(load(&warm, &profile, &path).unwrap().merged, 8);
        let mut shared: HashMap<String, Arc<str>> = HashMap::new();
        warm.for_each_entry(profile.env_tag(), |key, _| {
            for part in [&key.formula, &key.model] {
                let first = shared.entry(part.to_string()).or_insert(part.clone());
                assert!(Arc::ptr_eq(first, part), "{part}");
            }
        });
        assert_eq!(shared.len(), 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_out_of_range_part_index_is_corrupt() {
        // Three entries with negative verdicts, so each entry is 21 bytes:
        // node budget, fuel slack, two part indices and the verdict tag.
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let scope = QueryScope {
            env_tag: profile.env_tag(),
            node_budget: 9,
            fuel_slack: 2,
        };
        let cache = CheckCache::new();
        for model in ["m0", "m1", "m2"] {
            cache.store(CacheKey::of(scope, "f", model), None);
        }
        let path = temp_path("part-index");
        save(&cache, &profile, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let nparts = part_table(&bytes).len() as u32;
        assert_eq!(nparts, 4);

        // Point the last entry's model part one past the table, and seal
        // the checksum again so that the index is the only fault.
        let at = bytes.len() - 5;
        let mut write_index = |index: u32| {
            bytes[at..at + 4].copy_from_slice(&index.to_le_bytes());
            let checksum = fnv1a(&bytes[BODY..]);
            bytes[BODY - 8..BODY].copy_from_slice(&checksum.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
        };
        write_index(nparts);
        let fresh = CheckCache::new();
        assert!(matches!(
            load(&fresh, &profile, &path),
            Err(PersistError::Corrupted(why)) if why.contains("key part 4")
        ));
        assert_eq!(fresh.stats().entries, 0, "rejected load must not insert");
        // The index was the only fault: the last part is the last entry's
        // own model part (each entry's is new when the save reaches it).
        write_index(nparts - 1);
        assert_eq!(load(&fresh, &profile, &path).unwrap().merged, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_temp_files_are_swept_on_save_and_load() {
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("plist(x)").unwrap();
        let _ = ctx.check(&list_model(2, 1), &f);

        let path = temp_path("sweep");
        let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
        let parent = path.parent().unwrap().to_path_buf();
        // A temp stranded by a "crashed" save of a dead process (a pid
        // this test does not have, aged past the staleness window),
        // plus a *fresh* other-pid temp (a live sibling mid-save) and
        // one belonging to this process (a concurrent save mid-write) —
        // both of which must survive.
        let stale = parent.join(format!("{stem}.tmp.999999999.0"));
        let fresh = parent.join(format!("{stem}.tmp.999999998.0"));
        let own = parent.join(format!("{stem}.tmp.{}.7", std::process::id()));
        let plant_stale = || {
            std::fs::write(&stale, b"half-written snapshot").unwrap();
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&stale)
                .unwrap();
            let crashed_at = std::time::SystemTime::now() - 2 * super::STALE_TEMP_AGE;
            file.set_times(std::fs::FileTimes::new().set_modified(crashed_at))
                .unwrap();
        };
        plant_stale();
        std::fs::write(&fresh, b"in-flight sibling snapshot").unwrap();
        std::fs::write(&own, b"in-flight snapshot").unwrap();

        save(&cache, &profile, &path).unwrap();
        assert!(
            !stale.exists(),
            "a successful save must sweep aged dead-process temps"
        );
        assert!(fresh.exists(), "fresh other-pid temps may be mid-save");
        assert!(own.exists(), "own-pid temps are in flight, not stale");

        plant_stale();
        let restored = CheckCache::new();
        assert!(load(&restored, &profile, &path).unwrap().merged > 0);
        assert!(!stale.exists(), "load must sweep aged temps too");
        assert!(fresh.exists());
        assert!(own.exists());

        std::fs::remove_file(&fresh).ok();
        std::fs::remove_file(&own).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_reports_only_retained_entries() {
        // Loading into a near-capacity cache keeps what fits; the
        // returned count must reflect what was retained, not the file.
        use crate::SHARD_COUNT;
        let (types, preds) = envs();
        let profile = EnvProfile::new(&types, &preds);
        let cache = CheckCache::new();
        let ctx = CheckCtx::with_cache(&types, &preds, Default::default(), &cache);
        let f = parse_formula("plist(x)").unwrap();
        for n in 0..(4 * SHARD_COUNT as u64) {
            let _ = ctx.check(&list_model(n, 1), &f);
        }
        let path = temp_path("capacity");
        let written = save(&cache, &profile, &path).unwrap();

        let tiny = CheckCache::with_capacity(SHARD_COUNT); // one entry per shard
        let loaded = load(&tiny, &profile, &path).unwrap().merged;
        assert_eq!(loaded, tiny.stats().entries);
        assert!(
            loaded < written,
            "a tiny cache cannot retain the whole snapshot ({loaded} vs {written})"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_filters_by_environment() {
        // One shared cache, two environments: a snapshot for one env
        // contains only that env's entries.
        let (types, preds_real) = envs();
        let mut preds_other = PredEnv::new();
        for d in parse_predicates("pred plist(x: PersistNode*) := emp & x == nil;").unwrap() {
            preds_other.define(d).unwrap();
        }
        let cache = CheckCache::new();
        let a = CheckCtx::with_cache(&types, &preds_real, Default::default(), &cache);
        let b = CheckCtx::with_cache(&types, &preds_other, Default::default(), &cache);
        let f = parse_formula("plist(x)").unwrap();
        let _ = a.check(&list_model(2, 1), &f);
        let _ = b.check(&list_model(2, 1), &f);
        assert_eq!(cache.stats().entries, 2);

        let profile_a = EnvProfile::new(&types, &preds_real);
        let path = temp_path("filter");
        assert_eq!(save(&cache, &profile_a, &path).unwrap(), 1);
        let only_a = CheckCache::new();
        assert_eq!(load(&only_a, &profile_a, &path).unwrap().merged, 1);
        std::fs::remove_file(&path).ok();
    }
}
