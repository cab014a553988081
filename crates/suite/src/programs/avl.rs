//! AVL-tree programs (Table 1 row "AVL Tree", 4 programs). The shape
//! predicates are height-free (`tree`/`bst`); exact height bookkeeping is
//! outside the symbolic-heap fragment.

use sling_lang::TreeKind;

use crate::predicates::tnode_layout;
use crate::program::{int_keys, nil_or, ArgCand, Bench, Category};

fn avl(size: usize) -> ArgCand {
    ArgCand::Tree {
        layout: tnode_layout(),
        kind: TreeKind::Balanced,
        size,
    }
}

const AVL_BALANCE: &str = r#"
struct TNode { left: TNode*; right: TNode*; data: int; }
fn height(t: TNode*) -> int {
    if (t == null) {
        return 0;
    }
    var hl: int = height(t->left);
    var hr: int = height(t->right);
    if (hl > hr) {
        return hl + 1;
    }
    return hr + 1;
}
fn rotateRight(t: TNode*) -> TNode* {
    var l: TNode* = t->left;
    t->left = l->right;
    l->right = t;
    return l;
}
fn rotateLeft(t: TNode*) -> TNode* {
    var r: TNode* = t->right;
    t->right = r->left;
    r->left = t;
    return r;
}
fn avlBalance(t: TNode*) -> TNode* {
    if (t == null) {
        return null;
    }
    var hl: int = height(t->left);
    var hr: int = height(t->right);
    if (hl > hr + 1) {
        return rotateRight(t);
    }
    if (hr > hl + 1) {
        return rotateLeft(t);
    }
    return t;
}
"#;

const DEL: &str = r#"
struct TNode { left: TNode*; right: TNode*; data: int; }
fn findMin(t: TNode*) -> TNode* {
    if (t->left == null) {
        return t;
    }
    return findMin(t->left);
}
fn del(t: TNode*, k: int) -> TNode* {
    if (t == null) {
        return null;
    }
    if (k < t->data) {
        t->left = del(t->left, k);
        return t;
    }
    if (k > t->data) {
        t->right = del(t->right, k);
        return t;
    }
    if (t->left == null) {
        return t->right;
    }
    if (t->right == null) {
        return t->left;
    }
    var m: TNode* = findMin(t->right);
    t->data = m->data;
    t->right = del(t->right, m->data);
    return t;
}
"#;

const FIND_SMALLEST: &str = r#"
struct TNode { left: TNode*; right: TNode*; data: int; }
fn findSmallest(t: TNode*) -> TNode* {
    if (t == null) {
        return null;
    }
    while @down (t->left != null) {
        t = t->left;
    }
    return t;
}
"#;

const INSERT: &str = r#"
struct TNode { left: TNode*; right: TNode*; data: int; }
fn insert(t: TNode*, k: int) -> TNode* {
    if (t == null) {
        return new TNode { data: k };
    }
    if (k < t->data) {
        t->left = insert(t->left, k);
    } else {
        t->right = insert(t->right, k);
    }
    return t;
}
"#;

/// The four AVL benchmarks.
pub fn benches() -> Vec<Bench> {
    vec![
        Bench::new(
            "avl/avlBalance",
            Category::AvlTree,
            AVL_BALANCE,
            "avlBalance",
            vec![nil_or(avl)],
        )
        .spec("tree(t)", &[(2, "tree(res)")]),
        Bench::new(
            "avl/del",
            Category::AvlTree,
            DEL,
            "del",
            vec![nil_or(avl), int_keys()],
        )
        .spec(
            "exists lo, hi. bst(t, lo, hi)",
            &[(1, "tree(t) & res == t")],
        ),
        Bench::new(
            "avl/findSmallest",
            Category::AvlTree,
            FIND_SMALLEST,
            "findSmallest",
            vec![nil_or(avl)],
        )
        .spec(
            "tree(t)",
            &[
                (0, "emp & t == nil & res == nil"),
                (1, "tree(t) & res == t"),
            ],
        )
        .loop_inv("down", "tree(t)"),
        Bench::new(
            "avl/insert",
            Category::AvlTree,
            INSERT,
            "insert",
            vec![nil_or(avl), int_keys()],
        )
        .spec(
            "exists lo, hi. bst(t, lo, hi)",
            &[
                (
                    0,
                    "exists d. res -> TNode{left: nil, right: nil, data: d} & t == nil",
                ),
                (1, "tree(t) & res == t"),
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_lang::{check_program, parse_program};

    #[test]
    fn sources_compile() {
        for b in benches() {
            let p =
                parse_program(b.source).unwrap_or_else(|e| panic!("{}: parse error: {e}", b.name));
            check_program(&p).unwrap_or_else(|e| panic!("{}: type error: {e}", b.name));
        }
    }

    #[test]
    fn count_matches_table1() {
        assert_eq!(benches().len(), 4);
    }
}
