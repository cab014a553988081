//! The predicate library: inductive heap predicates per benchmark
//! category (the paper's §5.2 — "we adopt the predicate definitions given
//! for that data \[structure\] from the benchmark programs").
//!
//! Each category has its own record vocabulary (mirroring the different C
//! struct layouts of VCDryad / GRASShopper / glib / the Linux kernel) and
//! a matching set of predicates. Layout helpers give the input generators
//! the field indices of each structural role.

use sling_lang::{ListLayout, TreeLayout};
use sling_logic::{parse_predicates, PredEnv, Symbol};

use crate::program::Category;

/// Singly linked lists over `SNode { next, data }`.
pub const SLL_PREDS: &str = r#"
pred sll(x: SNode*) :=
    emp & x == nil
  | exists u, d. x -> SNode{next: u, data: d} * sll(u);

pred lseg(x: SNode*, y: SNode*) :=
    emp & x == y
  | exists u, d. x -> SNode{next: u, data: d} * lseg(u, y);
"#;

/// Sorted lists over `SNode { next, data }`.
pub const SORTED_PREDS: &str = r#"
pred sll(x: SNode*) :=
    emp & x == nil
  | exists u, d. x -> SNode{next: u, data: d} * sll(u);

pred lseg(x: SNode*, y: SNode*) :=
    emp & x == y
  | exists u, d. x -> SNode{next: u, data: d} * lseg(u, y);

pred srtl(x: SNode*, min: int) :=
    emp & x == nil
  | exists u, d. x -> SNode{next: u, data: d} * srtl(u, d) & min <= d;
"#;

/// Doubly linked lists over `DNode { next, prev, data }` (the paper's
/// running example).
pub const DLL_PREDS: &str = r#"
pred dll(hd: DNode*, pr: DNode*, tl: DNode*, nx: DNode*) :=
    emp & hd == nx & pr == tl
  | exists u, d. hd -> DNode{next: u, prev: pr, data: d} * dll(u, hd, tl, nx);
"#;

/// Circular singly linked lists over `CNode { next, data }`.
pub const CIRCULAR_PREDS: &str = r#"
pred clseg(x: CNode*, y: CNode*) :=
    emp & x == y
  | exists u, d. x -> CNode{next: u, data: d} * clseg(u, y);

pred cll(x: CNode*) :=
    emp & x == nil
  | exists u, d. x -> CNode{next: u, data: d} * clseg(u, x);
"#;

/// Binary (search) trees over `TNode { left, right, data }`.
pub const TREE_PREDS: &str = r#"
pred tree(t: TNode*) :=
    emp & t == nil
  | exists l, r, d. t -> TNode{left: l, right: r, data: d} * tree(l) * tree(r);

pred bst(t: TNode*, lo: int, hi: int) :=
    emp & t == nil
  | exists l, r, d. t -> TNode{left: l, right: r, data: d}
      * bst(l, lo, d) * bst(r, d, hi) & lo <= d & d <= hi;

pred rlist(t: TNode*) :=
    emp & t == nil
  | exists r, d. t -> TNode{left: nil, right: r, data: d} * rlist(r);
"#;

/// Priority (heap-ordered) trees over `PNode { left, right, data }`: every
/// key is bounded by `top`.
pub const PRIORITY_PREDS: &str = r#"
pred ptree(t: PNode*, top: int) :=
    emp & t == nil
  | exists l, r, d. t -> PNode{left: l, right: r, data: d}
      * ptree(l, d) * ptree(r, d) & d <= top;
"#;

/// Red-black trees over `RNode { left, right, color, data }`; `c` is the
/// root color (0 black, 1 red) and red nodes have black children.
pub const RBT_PREDS: &str = r#"
pred rbt(t: RNode*, c: int) :=
    emp & t == nil & c == 0
  | exists l, r, cl, cr, d. t -> RNode{left: l, right: r, color: c, data: d}
      * rbt(l, cl) * rbt(r, cr) & c == 0
  | exists l, r, d. t -> RNode{left: l, right: r, color: c, data: d}
      * rbt(l, 0) * rbt(r, 0) & c == 1;
"#;

/// glib `GList` (doubly linked) over `GNode { next, prev, data }`.
pub const GLIB_DLL_PREDS: &str = r#"
pred gdll(hd: GNode*, pr: GNode*, tl: GNode*, nx: GNode*) :=
    emp & hd == nx & pr == tl
  | exists u, d. hd -> GNode{next: u, prev: pr, data: d} * gdll(u, hd, tl, nx);
"#;

/// glib `GSList` (singly linked) over `GsNode { next, data }`.
pub const GLIB_SLL_PREDS: &str = r#"
pred gsll(x: GsNode*) :=
    emp & x == nil
  | exists u, d. x -> GsNode{next: u, data: d} * gsll(u);

pred gslseg(x: GsNode*, y: GsNode*) :=
    emp & x == y
  | exists u, d. x -> GsNode{next: u, data: d} * gslseg(u, y);
"#;

/// OpenBSD `TAILQ`-style queues: a `Queue { first, last }` header over
/// `QNode { next, data }` cells. `queue(h, t)` is a non-empty segment
/// from `h` whose last node is `t`; `wq(q)` is a well-formed header.
pub const QUEUE_PREDS: &str = r#"
pred qseg(x: QNode*, y: QNode*) :=
    emp & x == y
  | exists u, d. x -> QNode{next: u, data: d} * qseg(u, y);

pred queue(h: QNode*, t: QNode*) :=
    exists d. h -> QNode{next: nil, data: d} & h == t
  | exists u, d. h -> QNode{next: u, data: d} * queue(u, t);

pred wq(q: Queue*) :=
    q -> Queue{first: nil, last: nil}
  | exists f, l. q -> Queue{first: f, last: l} * queue(f, l);
"#;

/// Linux-style memory regions over
/// `MRegion { next, prev, start, size }` — a doubly linked list of
/// descriptors.
pub const MEMREGION_PREDS: &str = r#"
pred mrdll(hd: MRegion*, pr: MRegion*, tl: MRegion*, nx: MRegion*) :=
    emp & hd == nx & pr == tl
  | exists u, s, z. hd -> MRegion{next: u, prev: pr, start: s, size: z}
      * mrdll(u, hd, tl, nx);
"#;

/// Binomial heaps over `BNode { child, sibling, degree, key }`.
pub const BINOMIAL_PREDS: &str = r#"
pred bheap(x: BNode*) :=
    emp & x == nil
  | exists c, s, d, k. x -> BNode{child: c, sibling: s, degree: d, key: k}
      * bheap(c) * bheap(s);
"#;

/// SV-COMP master/slave nested lists: every `Master` owns a `Slave` list.
pub const SVCOMP_PREDS: &str = r#"
pred slist(s: Slave*) :=
    emp & s == nil
  | exists u. s -> Slave{next: u} * slist(u);

pred mlist(m: Master*) :=
    emp & m == nil
  | exists n, s. m -> Master{next: n, slave: s} * slist(s) * mlist(n);
"#;

/// GRASShopper singly linked lists over `HNode { next, data }`.
pub const GRASSHOPPER_SLL_PREDS: &str = r#"
pred hsll(x: HNode*) :=
    emp & x == nil
  | exists u, d. x -> HNode{next: u, data: d} * hsll(u);

pred hlseg(x: HNode*, y: HNode*) :=
    emp & x == y
  | exists u, d. x -> HNode{next: u, data: d} * hlseg(u, y);
"#;

/// GRASShopper doubly linked lists over `HdNode { next, prev, data }`.
pub const GRASSHOPPER_DLL_PREDS: &str = r#"
pred hdll(hd: HdNode*, pr: HdNode*, tl: HdNode*, nx: HdNode*) :=
    emp & hd == nx & pr == tl
  | exists u, d. hd -> HdNode{next: u, prev: pr, data: d} * hdll(u, hd, tl, nx);
"#;

/// GRASShopper sorted lists over `HNode { next, data }`.
pub const GRASSHOPPER_SORTED_PREDS: &str = r#"
pred hsll(x: HNode*) :=
    emp & x == nil
  | exists u, d. x -> HNode{next: u, data: d} * hsll(u);

pred hlseg(x: HNode*, y: HNode*) :=
    emp & x == y
  | exists u, d. x -> HNode{next: u, data: d} * hlseg(u, y);

pred hsrtl(x: HNode*, min: int) :=
    emp & x == nil
  | exists u, d. x -> HNode{next: u, data: d} * hsrtl(u, d) & min <= d;
"#;

/// AFWP singly linked lists over `ANode { next, data }`.
pub const AFWP_SLL_PREDS: &str = r#"
pred asll(x: ANode*) :=
    emp & x == nil
  | exists u, d. x -> ANode{next: u, data: d} * asll(u);

pred alseg(x: ANode*, y: ANode*) :=
    emp & x == y
  | exists u, d. x -> ANode{next: u, data: d} * alseg(u, y);
"#;

/// AFWP doubly linked lists over `AdNode { next, prev }`; `adsll` reads
/// the same nodes singly (the `dll_fix` benchmark mixes both views).
pub const AFWP_DLL_PREDS: &str = r#"
pred adll(hd: AdNode*, pr: AdNode*, tl: AdNode*, nx: AdNode*) :=
    emp & hd == nx & pr == tl
  | exists u. hd -> AdNode{next: u, prev: pr} * adll(u, hd, tl, nx);

pred adsll(x: AdNode*) :=
    emp & x == nil
  | exists u, p. x -> AdNode{next: u, prev: p} * adsll(u);
"#;

/// Cyclist benchmarks: Schorr-Waite trees with mark bits, frame stacks,
/// composite trees with parent pointers, and a collection/iterator pair.
pub const CYCLIST_PREDS: &str = r#"
pred swtree(t: SwNode*) :=
    emp & t == nil
  | exists l, r, m. t -> SwNode{left: l, right: r, mark: m} * swtree(l) * swtree(r);

pred frames(s: Frame*) :=
    emp & s == nil
  | exists n, v. s -> Frame{below: n, val: v} * frames(n);

pred comp(t: CompNode*, p: CompNode*) :=
    emp & t == nil
  | exists l, r, d. t -> CompNode{left: l, right: r, parent: p, data: d}
      * comp(l, t) * comp(r, t);

pred items(x: Item*) :=
    emp & x == nil
  | exists u, d. x -> Item{next: u, data: d} * items(u);
"#;

/// The predicate source for a category.
pub fn predicates_source(cat: Category) -> &'static str {
    match cat {
        Category::Sll | Category::TreeTraversal => SLL_AND_TREE,
        Category::SortedList => SORTED_PREDS,
        Category::Dll => DLL_PREDS,
        Category::CircularList => CIRCULAR_PREDS,
        Category::BinarySearchTree | Category::AvlTree => TREE_PREDS,
        Category::PriorityTree => PRIORITY_PREDS,
        Category::RedBlackTree => RBT_PREDS,
        Category::GlibDll => GLIB_DLL_PREDS,
        Category::GlibSll => GLIB_SLL_PREDS,
        Category::OpenBsdQueue => QUEUE_PREDS,
        Category::MemoryRegion => MEMREGION_PREDS,
        Category::BinomialHeap => BINOMIAL_PREDS,
        Category::SvComp => SVCOMP_PREDS,
        Category::GrasshopperSllIter | Category::GrasshopperSllRec => GRASSHOPPER_SLL_PREDS,
        Category::GrasshopperDll => GRASSHOPPER_DLL_PREDS,
        Category::GrasshopperSorted => GRASSHOPPER_SORTED_PREDS,
        Category::AfwpSll => AFWP_SLL_PREDS,
        Category::AfwpDll => AFWP_DLL_PREDS,
        Category::Cyclist => CYCLIST_PREDS,
    }
}

/// SLL predicates for the plain-SLL category; tree-traversal programs use
/// trees *and* the right-spine list view.
const SLL_AND_TREE: &str = r#"
pred sll(x: SNode*) :=
    emp & x == nil
  | exists u, d. x -> SNode{next: u, data: d} * sll(u);

pred lseg(x: SNode*, y: SNode*) :=
    emp & x == y
  | exists u, d. x -> SNode{next: u, data: d} * lseg(u, y);

pred tree(t: TNode*) :=
    emp & t == nil
  | exists l, r, d. t -> TNode{left: l, right: r, data: d} * tree(l) * tree(r);

pred rlist(t: TNode*) :=
    emp & t == nil
  | exists r, d. t -> TNode{left: nil, right: r, data: d} * rlist(r);
"#;

/// Parses the predicate set of a category.
///
/// # Panics
///
/// Panics on malformed built-in predicate text (covered by tests).
pub fn pred_env(cat: Category) -> PredEnv {
    let mut env = PredEnv::new();
    for def in parse_predicates(predicates_source(cat)).expect("built-in predicates parse") {
        env.define(def).expect("no duplicate built-ins");
    }
    env
}

fn sym(s: &str) -> Symbol {
    Symbol::intern(s)
}

/// `SNode { next, data }` layout.
pub fn snode_layout() -> ListLayout {
    ListLayout {
        ty: sym("SNode"),
        nfields: 2,
        next: 0,
        prev: None,
        data: Some(1),
    }
}

/// `DNode { next, prev, data }` layout.
pub fn dnode_layout() -> ListLayout {
    ListLayout {
        ty: sym("DNode"),
        nfields: 3,
        next: 0,
        prev: Some(1),
        data: Some(2),
    }
}

/// `CNode { next, data }` layout.
pub fn cnode_layout() -> ListLayout {
    ListLayout {
        ty: sym("CNode"),
        nfields: 2,
        next: 0,
        prev: None,
        data: Some(1),
    }
}

/// `GNode { next, prev, data }` layout (glib GList).
pub fn gnode_layout() -> ListLayout {
    ListLayout {
        ty: sym("GNode"),
        nfields: 3,
        next: 0,
        prev: Some(1),
        data: Some(2),
    }
}

/// `GsNode { next, data }` layout (glib GSList).
pub fn gsnode_layout() -> ListLayout {
    ListLayout {
        ty: sym("GsNode"),
        nfields: 2,
        next: 0,
        prev: None,
        data: Some(1),
    }
}

/// `HNode { next, data }` layout (GRASShopper SLL/sorted).
pub fn hnode_layout() -> ListLayout {
    ListLayout {
        ty: sym("HNode"),
        nfields: 2,
        next: 0,
        prev: None,
        data: Some(1),
    }
}

/// `HdNode { next, prev, data }` layout (GRASShopper DLL).
pub fn hdnode_layout() -> ListLayout {
    ListLayout {
        ty: sym("HdNode"),
        nfields: 3,
        next: 0,
        prev: Some(1),
        data: Some(2),
    }
}

/// `ANode { next, data }` layout (AFWP).
pub fn anode_layout() -> ListLayout {
    ListLayout {
        ty: sym("ANode"),
        nfields: 2,
        next: 0,
        prev: None,
        data: Some(1),
    }
}

/// `AdNode { next, prev }` layout (AFWP DLL).
pub fn adnode_layout() -> ListLayout {
    ListLayout {
        ty: sym("AdNode"),
        nfields: 2,
        next: 0,
        prev: Some(1),
        data: None,
    }
}

/// `TNode { left, right, data }` layout.
pub fn tnode_layout() -> TreeLayout {
    TreeLayout {
        ty: sym("TNode"),
        nfields: 3,
        left: 0,
        right: 1,
        parent: None,
        data: Some(2),
        color: None,
    }
}

/// `RNode { left, right, color, data }` layout.
pub fn rnode_layout() -> TreeLayout {
    TreeLayout {
        ty: sym("RNode"),
        nfields: 4,
        left: 0,
        right: 1,
        parent: None,
        data: Some(3),
        color: Some(2),
    }
}

/// `SwNode { left, right, mark }` layout (Schorr-Waite).
pub fn swnode_layout() -> TreeLayout {
    TreeLayout {
        ty: sym("SwNode"),
        nfields: 3,
        left: 0,
        right: 1,
        parent: None,
        data: None,
        color: Some(2),
    }
}

/// `CompNode { left, right, parent, data }` layout (Cyclist composite).
pub fn compnode_layout() -> TreeLayout {
    TreeLayout {
        ty: sym("CompNode"),
        nfields: 4,
        left: 0,
        right: 1,
        parent: Some(2),
        data: Some(3),
        color: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_category_predicates_parse() {
        for &cat in Category::all() {
            let env = pred_env(cat);
            assert!(!env.is_empty(), "{cat:?} has no predicates");
        }
    }

    #[test]
    fn dll_pred_matches_paper() {
        let env = pred_env(Category::Dll);
        let dll = env.get(Symbol::intern("dll")).expect("dll defined");
        assert_eq!(dll.arity(), 4);
        assert_eq!(dll.cases.len(), 2);
    }

    #[test]
    fn rbt_pred_has_three_cases() {
        let env = pred_env(Category::RedBlackTree);
        let rbt = env.get(Symbol::intern("rbt")).expect("rbt defined");
        assert_eq!(rbt.cases.len(), 3);
    }
}
