//! Interned identifiers.
//!
//! Every variable, predicate name, structure name, and field name in the
//! workspace is a [`Symbol`]: a small copyable index into a global string
//! interner. Equality and hashing use the index, so they are O(1).
//! Ordering is textual, so that maps keyed by `Symbol` iterate in the same
//! order whatever order the names were interned in.
//!
//! A textual comparison reads both texts, so the inference path looks its
//! variables up by id and compares text only where an order reaches its
//! output or a cache key. A stack model or an instantiation is a vector of
//! bindings in name order that a lookup scans by id; split boundaries,
//! variable types, the free set of a location and the renamings of
//! replayed and finalized formulas are small vectors scanned by id; the
//! checker's search numbers its variables by first occurrence. Text is
//! still read by:
//!
//! * formula printing: `Display`, the formula part of a cache key, and the
//!   printed tie-break of `InferAtom`'s ranking;
//! * the sorts that keep an order: of a formula part's free variables, of
//!   a stack or instantiation built from unordered bindings (and the
//!   binary search or merge that adds names to one), and of an equality
//!   class's members in pure inference, which picks its representative;
//! * maps keyed by `Symbol`: the type and predicate environments, the
//!   bytecode VM's field table (a field access finds its slot by name),
//!   and substitutions (`Subst`).
//!
//! In a single-worker `corpus_warm` pass that is about 134,000 textual
//! comparisons: 77,000 keep instantiations in name order (merges, and
//! the sorts of decoded and replayed ones), 34,000 are the VM's field
//! lookups and 14,000 build the snapshots' stacks. Keying inference by
//! `Symbol` in ordered maps made 1,287,000. A read happens on every check,
//! so it must not take a lock: with the locked read in place of the mirror
//! below, the `corpus_cold` benchmark's `wall_s` rose 21% (0.97 → 1.17 s,
//! median of 6 runs each on 2 cores, slower in 6 of 6 pairs).
//!
//! The interner's table of strings is append-only: an id, once handed
//! out, names the same `&'static str` forever. Each thread therefore keeps
//! a mirror of the table's prefix it has seen, and text reads
//! ([`Symbol::as_str`], and with it `Ord`, `Display` and `Debug`) index
//! that mirror. Only a read of an id past the mirror's end takes the
//! global read lock, once, to copy the table's new tail. The mirror costs
//! one `&'static str` (two words) per interned symbol for each thread
//! that reads symbol text.
//!
//! # Examples
//!
//! ```
//! use sling_logic::Symbol;
//!
//! let x = Symbol::intern("x");
//! let x2 = Symbol::intern("x");
//! assert_eq!(x, x2);
//! assert_eq!(x.as_str(), "x");
//! ```

use std::cell::RefCell;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string.
///
/// `Symbol` is a `Copy` 4-byte id. `Eq` and `Hash` use the id; `Ord`
/// compares the text (not creation order), so data structures keyed by
/// `Symbol` iterate deterministically and independently of interning
/// history. The text is obtained with [`Symbol::as_str`], which reads this
/// thread's mirror of the interner table without locking.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

struct Interner {
    strings: Vec<&'static str>,
    lookup: std::collections::HashMap<&'static str, u32>,
}

impl Interner {
    fn new() -> Self {
        Interner {
            strings: Vec::new(),
            lookup: std::collections::HashMap::new(),
        }
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.lookup.get(s) {
            return id;
        }
        // Leaking is fine: the set of distinct identifiers in any run is
        // small (bounded by source text), and `&'static str` lets us hand
        // out `as_str` without a guard.
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let id = self.strings.len() as u32;
        self.strings.push(leaked);
        self.lookup.insert(leaked, id);
        id
    }
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(Interner::new()))
}

thread_local! {
    /// This thread's copy of a prefix of the interner's `strings`. The
    /// table only grows and never changes an entry, so a copied prefix
    /// stays valid for the life of the process.
    static MIRROR: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

impl Symbol {
    /// Interns `text` and returns its symbol.
    ///
    /// ```
    /// # use sling_logic::Symbol;
    /// assert_eq!(Symbol::intern("next"), Symbol::intern("next"));
    /// ```
    pub fn intern(text: &str) -> Symbol {
        // Fast path: read lock only.
        if let Some(&id) = interner().read().expect("interner lock").lookup.get(text) {
            return Symbol(id);
        }
        Symbol(interner().write().expect("interner lock").intern(text))
    }

    /// Returns the interned text.
    ///
    /// Reads this thread's mirror of the interner table. The global lock
    /// is taken only when the symbol was interned after the mirror was
    /// last extended; the mirror then copies every entry it lacks.
    pub fn as_str(self) -> &'static str {
        let id = self.0 as usize;
        MIRROR
            .try_with(|mirror| {
                let mut mirror = mirror.borrow_mut();
                if id >= mirror.len() {
                    let table = interner().read().expect("interner lock");
                    let seen = mirror.len();
                    mirror.extend_from_slice(&table.strings[seen..]);
                }
                mirror[id]
            })
            // The mirror is gone only while this thread's thread-locals
            // are being destroyed; read the table itself then.
            .unwrap_or_else(|_| interner().read().expect("interner lock").strings[id])
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Textual order: deterministic regardless of interning order.
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

/// Generates fresh variables (`u1`, `u2`, ...) that avoid a given set.
///
/// SLING introduces fresh existential variables when a predicate has more
/// parameters than chosen boundary variables (Algorithm 2, line 5). The
/// generator never returns a symbol in its avoid set or one it has already
/// produced.
///
/// # Examples
///
/// ```
/// use sling_logic::{FreshVars, Symbol};
///
/// let mut fresh = FreshVars::new("u");
/// fresh.avoid(Symbol::intern("u1"));
/// let a = fresh.next();
/// let b = fresh.next();
/// assert_eq!(a.as_str(), "u2"); // u1 was avoided
/// assert_eq!(b.as_str(), "u3");
/// ```
#[derive(Debug, Clone)]
pub struct FreshVars {
    prefix: String,
    counter: u32,
    avoid: std::collections::HashSet<Symbol>,
}

impl FreshVars {
    /// Creates a generator producing `<prefix>1`, `<prefix>2`, ...
    pub fn new(prefix: &str) -> FreshVars {
        FreshVars {
            prefix: prefix.to_owned(),
            counter: 0,
            avoid: Default::default(),
        }
    }

    /// Adds a symbol the generator must never produce.
    pub fn avoid(&mut self, sym: Symbol) {
        self.avoid.insert(sym);
    }

    /// Adds every symbol in `syms` to the avoid set.
    pub fn avoid_all<I: IntoIterator<Item = Symbol>>(&mut self, syms: I) {
        self.avoid.extend(syms);
    }

    /// Returns the next fresh symbol.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Symbol {
        loop {
            self.counter += 1;
            let sym = Symbol::intern(&format!("{}{}", self.prefix, self.counter));
            if !self.avoid.contains(&sym) {
                self.avoid.insert(sym);
                return sym;
            }
        }
    }

    /// Returns `n` fresh symbols.
    pub fn take(&mut self, n: usize) -> Vec<Symbol> {
        (0..n).map(|_| self.next()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Barrier, Mutex};
    use std::thread;

    #[test]
    fn intern_is_idempotent() {
        let a = Symbol::intern("foo");
        let b = Symbol::intern("foo");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "foo");
    }

    #[test]
    fn distinct_strings_distinct_symbols() {
        assert_ne!(Symbol::intern("a"), Symbol::intern("b"));
    }

    #[test]
    fn ordering_is_textual() {
        // Intern in reverse order; ordering must still be textual.
        let z = Symbol::intern("zzz_order");
        let a = Symbol::intern("aaa_order");
        assert!(a < z);
    }

    #[test]
    fn fresh_skips_avoided() {
        let mut fresh = FreshVars::new("v");
        fresh.avoid(Symbol::intern("v1"));
        fresh.avoid(Symbol::intern("v2"));
        assert_eq!(fresh.next().as_str(), "v3");
    }

    #[test]
    fn fresh_never_repeats() {
        let mut fresh = FreshVars::new("w");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(fresh.next()));
        }
    }

    #[test]
    fn take_returns_n() {
        let mut fresh = FreshVars::new("t");
        assert_eq!(fresh.take(5).len(), 5);
    }

    #[test]
    fn display_matches_text() {
        assert_eq!(Symbol::intern("hd").to_string(), "hd");
    }

    #[test]
    fn text_reads_work_in_thread_local_destructors() {
        struct ReadsOnDrop(Symbol);
        impl Drop for ReadsOnDrop {
            fn drop(&mut self) {
                assert_eq!(self.0.as_str(), "mirror_teardown");
            }
        }
        thread_local! {
            static GUARD: RefCell<Option<ReadsOnDrop>> = const { RefCell::new(None) };
        }
        thread::spawn(|| {
            // On Linux, thread-local destructors run in reverse order of
            // first use, so the mirror is gone by the time `GUARD` drops.
            GUARD.with(|g| *g.borrow_mut() = Some(ReadsOnDrop(Symbol::intern("mirror_teardown"))));
            assert_eq!(Symbol::intern("hd").as_str(), "hd");
        })
        .join()
        .expect("a thread-local destructor read symbol text");
    }

    fn mirror_len() -> usize {
        MIRROR.with(|mirror| mirror.borrow().len())
    }

    #[test]
    fn filled_mirror_reads_symbols_interned_later_elsewhere() {
        let mid = Symbol::intern("m_mirror_late");
        let (ready_tx, ready_rx) = mpsc::channel();
        let (late_tx, late_rx) = mpsc::channel::<[Symbol; 2]>();
        let reader = thread::spawn(move || {
            // Fill this thread's mirror up to the table's current end.
            assert_eq!(mid.as_str(), "m_mirror_late");
            let filled = mirror_len();
            ready_tx.send(()).expect("main thread waits");
            let [z, a] = late_rx.recv().expect("main thread sends");
            // Both were interned after the mirror was filled, so these
            // reads must copy the table's new tail.
            assert!(z.0 as usize >= filled && a.0 as usize >= filled);
            assert_eq!(z.as_str(), "z_mirror_late");
            assert_eq!(a.as_str(), "a_mirror_late");
            assert!(a < mid && mid < z);
        });
        ready_rx.recv().expect("reader filled its mirror");
        // Interned in reverse textual order, after the reader's fill.
        let late = [
            Symbol::intern("z_mirror_late"),
            Symbol::intern("a_mirror_late"),
        ];
        late_tx.send(late).expect("reader waits");
        reader.join().expect("reader thread");
    }

    #[test]
    fn threads_read_each_others_symbols() {
        const THREADS: usize = 4;
        let barrier = Barrier::new(THREADS);
        let interned: Mutex<Vec<(Symbol, String)>> = Mutex::new(Vec::new());
        thread::scope(|scope| {
            for t in 0..THREADS {
                let (barrier, interned) = (&barrier, &interned);
                scope.spawn(move || {
                    // Fill the mirror before anyone interns, so the
                    // other threads' symbols all lie past its end.
                    assert_eq!(Symbol::intern("hd").as_str(), "hd");
                    barrier.wait();
                    let mine: Vec<(Symbol, String)> = (0..50)
                        .rev()
                        .map(|i| format!("mirror_t{t}_{i:02}"))
                        .map(|text| (Symbol::intern(&text), text))
                        .collect();
                    interned
                        .lock()
                        .expect("no test thread panicked")
                        .extend(mine);
                    barrier.wait();
                    let mut all = interned.lock().expect("no test thread panicked").clone();
                    assert_eq!(all.len(), THREADS * 50);
                    for (sym, text) in &all {
                        assert_eq!(sym.as_str(), text);
                    }
                    let mut by_text = all.clone();
                    by_text.sort_by(|x, y| x.1.cmp(&y.1));
                    all.sort_by_key(|x| x.0);
                    assert_eq!(all, by_text);
                });
            }
        });
    }
}
