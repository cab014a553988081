//! Benchmark program descriptors.
//!
//! Every corpus entry carries its MiniC source, the function SLING
//! analyzes, how to generate test inputs (the paper's §5.2 setup: `nil`
//! plus random size-10 structures, all combinations), its documented
//! ("ground truth") properties for the Table 2 comparison, and the
//! markers Table 1 annotates programs with (seeded bugs `∗`, freeing
//! programs in bold, hard-to-reach locations in italics).

use rand::rngs::StdRng;
use rand::SeedableRng;

use sling::{InputSource, InputSpec, ValueSpec};
use sling_lang::{DataOrder, ListLayout, RtHeap, TreeKind, TreeLayout};
use sling_models::Val;

/// Table 1 / Table 2 category (one per row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// Standard singly linked lists.
    Sll,
    /// Sorted lists.
    SortedList,
    /// Doubly linked lists.
    Dll,
    /// Circular lists.
    CircularList,
    /// Binary search trees.
    BinarySearchTree,
    /// AVL trees.
    AvlTree,
    /// Priority trees (heap-ordered).
    PriorityTree,
    /// Red-black trees.
    RedBlackTree,
    /// Tree traversals.
    TreeTraversal,
    /// glib GList used doubly.
    GlibDll,
    /// glib GSList (singly linked).
    GlibSll,
    /// OpenBSD queue macros.
    OpenBsdQueue,
    /// Linux-style memory regions.
    MemoryRegion,
    /// Binomial heaps.
    BinomialHeap,
    /// SV-COMP heap programs (master/slave nested lists).
    SvComp,
    /// GRASShopper singly linked, iterative.
    GrasshopperSllIter,
    /// GRASShopper singly linked, recursive.
    GrasshopperSllRec,
    /// GRASShopper doubly linked.
    GrasshopperDll,
    /// GRASShopper sorted lists.
    GrasshopperSorted,
    /// AFWP singly linked.
    AfwpSll,
    /// AFWP doubly linked.
    AfwpDll,
    /// Cyclist benchmarks (Brotherston et al.).
    Cyclist,
}

impl Category {
    /// The Table 1 row label.
    pub fn label(self) -> &'static str {
        match self {
            Category::Sll => "SLL",
            Category::SortedList => "Sorted List",
            Category::Dll => "DLL",
            Category::CircularList => "Circular List",
            Category::BinarySearchTree => "Binary Search Tree",
            Category::AvlTree => "AVL Tree",
            Category::PriorityTree => "Priority Tree",
            Category::RedBlackTree => "Red-black Tree",
            Category::TreeTraversal => "Tree Traversal",
            Category::GlibDll => "glib/glist_DLL",
            Category::GlibSll => "glib/glist_SLL",
            Category::OpenBsdQueue => "OpenBSD Queue",
            Category::MemoryRegion => "Memory Region",
            Category::BinomialHeap => "Binomial Heap",
            Category::SvComp => "SV-COMP",
            Category::GrasshopperSllIter => "GRASShopper_SLL (Iter)",
            Category::GrasshopperSllRec => "GRASShopper_SLL (Rec)",
            Category::GrasshopperDll => "GRASShopper_DLL",
            Category::GrasshopperSorted => "GRASShopper_SortedList",
            Category::AfwpSll => "AFWP_SLL",
            Category::AfwpDll => "AFWP_DLL",
            Category::Cyclist => "Cyclist",
        }
    }

    /// All categories in Table 1 row order.
    pub fn all() -> &'static [Category] {
        &[
            Category::Sll,
            Category::SortedList,
            Category::Dll,
            Category::CircularList,
            Category::BinarySearchTree,
            Category::AvlTree,
            Category::PriorityTree,
            Category::RedBlackTree,
            Category::TreeTraversal,
            Category::GlibDll,
            Category::GlibSll,
            Category::OpenBsdQueue,
            Category::MemoryRegion,
            Category::BinomialHeap,
            Category::SvComp,
            Category::GrasshopperSllIter,
            Category::GrasshopperSllRec,
            Category::GrasshopperDll,
            Category::GrasshopperSorted,
            Category::AfwpSll,
            Category::AfwpDll,
            Category::Cyclist,
        ]
    }
}

/// One candidate value for a function argument.
#[derive(Debug, Clone, Copy)]
pub enum ArgCand {
    /// The null pointer.
    Nil,
    /// A random (possibly sorted) list of the given size.
    List {
        /// Node layout.
        layout: ListLayout,
        /// Payload ordering.
        order: DataOrder,
        /// Node count.
        size: usize,
        /// Close the cycle.
        circular: bool,
    },
    /// A random tree of the given size and kind.
    Tree {
        /// Node layout.
        layout: TreeLayout,
        /// Shape discipline.
        kind: TreeKind,
        /// Node count.
        size: usize,
    },
    /// An integer constant.
    Int(i64),
    /// Custom generator (for nested / bespoke structures).
    Custom(fn(&mut RtHeap, &mut StdRng) -> Val),
}

impl ArgCand {
    /// Builds the value, drawing from `rng`: a declarative candidate
    /// through its [`ValueSpec`], so a combination built in a custom
    /// closure draws exactly what its spec-built siblings do.
    fn build(&self, heap: &mut RtHeap, rng: &mut StdRng) -> Val {
        match self {
            ArgCand::Custom(f) => f(heap, rng),
            _ => self
                .spec()
                .expect("every non-custom candidate has a spec")
                .build(heap, rng),
        }
    }

    /// The equivalent declarative [`ValueSpec`], when one exists.
    /// [`ArgCand::Custom`] generators have no declarative form.
    fn spec(&self) -> Option<ValueSpec> {
        match self {
            ArgCand::Nil => Some(ValueSpec::Nil),
            ArgCand::Int(k) => Some(ValueSpec::Int(*k)),
            ArgCand::List {
                layout,
                order,
                size,
                circular,
            } => Some(ValueSpec::List {
                layout: *layout,
                len: *size,
                order: *order,
                circular: *circular,
            }),
            ArgCand::Tree { layout, kind, size } => Some(ValueSpec::Tree {
                layout: *layout,
                size: *size,
                kind: *kind,
            }),
            ArgCand::Custom(_) => None,
        }
    }
}

/// Candidate sets per parameter; inputs are the cartesian product.
pub type ArgSpec = Vec<Vec<ArgCand>>;

/// The paper's default structure size.
pub const DEFAULT_SIZE: usize = 10;

/// Shorthand: `nil` plus random structures of sizes 1 and
/// [`DEFAULT_SIZE`].
pub fn nil_or(make: fn(usize) -> ArgCand) -> Vec<ArgCand> {
    vec![ArgCand::Nil, make(1), make(DEFAULT_SIZE)]
}

/// Shorthand: random structures of sizes 1 and [`DEFAULT_SIZE`] (no nil).
pub fn nonnil(make: fn(usize) -> ArgCand) -> Vec<ArgCand> {
    vec![make(1), make(DEFAULT_SIZE)]
}

/// Shorthand: a few integer key candidates.
pub fn int_keys() -> Vec<ArgCand> {
    vec![ArgCand::Int(0), ArgCand::Int(7), ArgCand::Int(55)]
}

/// A documented ("ground truth") property, used as Table 2's Total
/// column and by the matcher.
#[derive(Debug, Clone)]
pub enum Property {
    /// Function specification: the precondition (entry) and one
    /// postcondition per exit (index = exit id; programs document the
    /// relevant exits only).
    Spec {
        /// Formula expected at entry.
        pre: &'static str,
        /// `(exit index, formula)` pairs.
        posts: &'static [(usize, &'static str)],
    },
    /// Loop invariant at the named loop head.
    LoopInv {
        /// The loop label.
        label: &'static str,
        /// Formula expected at every head visit.
        formula: &'static str,
    },
}

/// Why a Table 1 program is marked `∗` (produces no/partial traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BugKind {
    /// Crashes with a memory fault on (nearly) every input.
    Segfault,
    /// Loops forever on some inputs.
    NonTermination,
}

/// One corpus program.
#[derive(Debug, Clone)]
pub struct Bench {
    /// `category/name` identifier.
    pub name: &'static str,
    /// Table 1 row.
    pub category: Category,
    /// MiniC source text.
    pub source: &'static str,
    /// Function analyzed by SLING.
    pub target: &'static str,
    /// Input candidates per parameter.
    pub args: ArgSpec,
    /// Documented properties (Table 2 ground truth).
    pub properties: Vec<Property>,
    /// Seeded bug marker (the `∗` programs).
    pub bug: Option<BugKind>,
    /// The program frees memory its callers can still reach (bold rows:
    /// the LLDB quirk makes their invariants spurious).
    pub frees: bool,
    /// Some locations are unreachable under random inputs (italic rows).
    pub hard_to_reach: bool,
}

impl Bench {
    /// Creates a descriptor with no properties or markers.
    pub fn new(
        name: &'static str,
        category: Category,
        source: &'static str,
        target: &'static str,
        args: ArgSpec,
    ) -> Bench {
        Bench {
            name,
            category,
            source,
            target,
            args,
            properties: Vec::new(),
            bug: None,
            frees: false,
            hard_to_reach: false,
        }
    }

    /// Adds a spec property.
    pub fn spec(mut self, pre: &'static str, posts: &'static [(usize, &'static str)]) -> Bench {
        self.properties.push(Property::Spec { pre, posts });
        self
    }

    /// Adds a loop-invariant property.
    pub fn loop_inv(mut self, label: &'static str, formula: &'static str) -> Bench {
        self.properties.push(Property::LoopInv { label, formula });
        self
    }

    /// Marks a seeded bug.
    pub fn bug(mut self, kind: BugKind) -> Bench {
        self.bug = Some(kind);
        self
    }

    /// Marks the program as freeing reachable memory.
    pub fn frees(mut self) -> Bench {
        self.frees = true;
        self
    }

    /// Marks locations as hard to reach with random inputs.
    pub fn hard_to_reach(mut self) -> Bench {
        self.hard_to_reach = true;
        self
    }

    /// Lines of MiniC code (non-empty, non-comment), the Table 1 LoC
    /// column.
    pub fn loc(&self) -> usize {
        self.source
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with("//"))
            .count()
    }

    /// Materializes the test inputs: the cartesian product of the
    /// argument candidates, each built with a deterministic RNG derived
    /// from `seed`. Combinations whose candidates all have a declarative
    /// form become [`InputSpec`]s (describable, replayable, `Send`);
    /// combinations involving [`ArgCand::Custom`] fall back to an
    /// equivalent custom closure. Both paths draw from the same seeded
    /// PRNG stream, so the generated structures are identical.
    pub fn inputs(&self, seed: u64) -> Vec<InputSource> {
        let mut combos: Vec<Vec<ArgCand>> = vec![Vec::new()];
        for cands in &self.args {
            let mut next = Vec::with_capacity(combos.len() * cands.len());
            for combo in &combos {
                for cand in cands {
                    let mut c = combo.clone();
                    c.push(*cand);
                    next.push(c);
                }
            }
            combos = next;
        }
        combos
            .into_iter()
            .enumerate()
            .map(|(i, combo)| {
                let combo_seed = seed.wrapping_add(i as u64 * 7919);
                match combo.iter().map(ArgCand::spec).collect::<Option<Vec<_>>>() {
                    Some(args) => InputSpec::seeded(combo_seed).args(args).into(),
                    None => InputSource::custom(move |heap: &mut RtHeap| {
                        let mut rng = StdRng::seed_from_u64(combo_seed);
                        combo.iter().map(|c| c.build(heap, &mut rng)).collect()
                    }),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_logic::Symbol;

    fn layout() -> ListLayout {
        ListLayout {
            ty: Symbol::intern("SNode"),
            nfields: 1,
            next: 0,
            prev: None,
            data: None,
        }
    }

    #[test]
    fn cartesian_inputs() {
        let b = Bench::new(
            "t/x",
            Category::Sll,
            "struct SNode { next: SNode*; } fn id(x: SNode*) -> SNode* { return x; }",
            "id",
            vec![
                vec![
                    ArgCand::Nil,
                    ArgCand::List {
                        layout: layout(),
                        order: DataOrder::Random,
                        size: 3,
                        circular: false,
                    },
                ],
                vec![ArgCand::Int(1), ArgCand::Int(2), ArgCand::Int(3)],
            ],
        );
        let inputs = b.inputs(42);
        assert_eq!(inputs.len(), 6);
        assert!(
            inputs.iter().all(|i| matches!(i, InputSource::Spec(_))),
            "declarative candidates become specs"
        );
        let mut heap = RtHeap::new();
        let args = inputs[1].build(&mut heap);
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn loc_counts_nonempty() {
        let b = Bench::new(
            "t/x",
            Category::Sll,
            "line1\n\n// comment\nline2\n",
            "id",
            vec![],
        );
        assert_eq!(b.loc(), 2);
    }

    #[test]
    fn builders_are_deterministic() {
        let b = Bench::new(
            "t/x",
            Category::Sll,
            "struct SNode { next: SNode*; }",
            "id",
            vec![vec![ArgCand::List {
                layout: layout(),
                order: DataOrder::Random,
                size: 5,
                circular: false,
            }]],
        );
        let mk = || {
            let mut heap = RtHeap::new();
            let v = b.inputs(7)[0].build(&mut heap);
            format!("{:?} {}", v, heap.live())
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn custom_candidates_fall_back_to_closures() {
        let b = Bench::new(
            "t/x",
            Category::Sll,
            "struct SNode { next: SNode*; }",
            "id",
            vec![vec![ArgCand::Custom(|_, _| Val::Int(9))]],
        );
        let inputs = b.inputs(0);
        assert!(matches!(inputs[0], InputSource::Custom(_)));
        let mut heap = RtHeap::new();
        assert_eq!(inputs[0].build(&mut heap), vec![Val::Int(9)]);
    }
}
