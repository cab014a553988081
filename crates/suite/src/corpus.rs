//! The assembled corpus: all 157 programs of Table 1.

use crate::program::Bench;
use crate::programs;

/// Every benchmark, grouped in Table 1 row order.
pub fn all_benches() -> Vec<Bench> {
    let mut out = Vec::with_capacity(157);
    out.extend(programs::sll::benches());
    out.extend(programs::sorted::benches());
    out.extend(programs::dll::benches());
    out.extend(programs::circular::benches());
    out.extend(programs::bst::benches());
    out.extend(programs::avl::benches());
    out.extend(programs::priority::benches());
    out.extend(programs::rbt::benches());
    out.extend(programs::traversal::benches());
    out.extend(programs::glib_dll::benches());
    out.extend(programs::glib_sll::benches());
    out.extend(programs::queue::benches());
    out.extend(programs::memregion::benches());
    out.extend(programs::binomial::benches());
    out.extend(programs::svcomp::benches());
    out.extend(programs::gh_sll_iter::benches());
    out.extend(programs::gh_sll_rec::benches());
    out.extend(programs::gh_dll::benches());
    out.extend(programs::gh_sorted::benches());
    out.extend(programs::afwp::sll_benches());
    out.extend(programs::afwp::dll_benches());
    out.extend(programs::cyclist::benches());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Category;
    use std::collections::BTreeMap;

    #[test]
    fn full_corpus_size() {
        assert_eq!(all_benches().len(), 157, "the paper evaluates 157 programs");
    }

    #[test]
    fn per_category_counts_match_table1() {
        let mut counts: BTreeMap<Category, usize> = BTreeMap::new();
        for b in all_benches() {
            *counts.entry(b.category).or_default() += 1;
        }
        let expect = [
            (Category::Sll, 8),
            (Category::SortedList, 10),
            (Category::Dll, 12),
            (Category::CircularList, 4),
            (Category::BinarySearchTree, 5),
            (Category::AvlTree, 4),
            (Category::PriorityTree, 4),
            (Category::RedBlackTree, 2),
            (Category::TreeTraversal, 5),
            (Category::GlibDll, 10),
            (Category::GlibSll, 22),
            (Category::OpenBsdQueue, 6),
            (Category::MemoryRegion, 1),
            (Category::BinomialHeap, 2),
            (Category::SvComp, 7),
            (Category::GrasshopperSllIter, 8),
            (Category::GrasshopperSllRec, 8),
            (Category::GrasshopperDll, 8),
            (Category::GrasshopperSorted, 14),
            (Category::AfwpSll, 11),
            (Category::AfwpDll, 2),
            (Category::Cyclist, 4),
        ];
        for (cat, n) in expect {
            assert_eq!(counts.get(&cat), Some(&n), "category {cat:?}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for b in all_benches() {
            assert!(seen.insert(b.name), "duplicate bench name {}", b.name);
        }
    }

    #[test]
    fn five_programs_carry_seeded_bugs() {
        let starred: Vec<&str> = all_benches()
            .iter()
            .filter(|b| b.bug.is_some())
            .map(|b| b.name)
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        assert_eq!(
            starred,
            vec![
                "sorted/quickSort",
                "bst/rmRoot",
                "rbt/del",
                "traversal/tree2listIter",
                "gh_sorted/mergeSort"
            ],
            "exactly the paper's ∗ programs"
        );
    }

    #[test]
    fn all_sources_parse_and_check() {
        for b in all_benches() {
            let p = sling_lang::parse_program(b.source)
                .unwrap_or_else(|e| panic!("{}: parse error: {e}", b.name));
            sling_lang::check_program(&p).unwrap_or_else(|e| panic!("{}: type error: {e}", b.name));
            assert!(
                p.func(sling_logic::Symbol::intern(b.target)).is_some(),
                "{}: target `{}` missing",
                b.name,
                b.target
            );
        }
    }

    #[test]
    fn documented_properties_parse() {
        use crate::program::Property;
        for b in all_benches() {
            for prop in &b.properties {
                match prop {
                    Property::Spec { pre, posts } => {
                        sling_logic::parse_formula(pre)
                            .unwrap_or_else(|e| panic!("{}: bad pre: {e}", b.name));
                        for (_, post) in posts.iter() {
                            sling_logic::parse_formula(post)
                                .unwrap_or_else(|e| panic!("{}: bad post: {e}", b.name));
                        }
                    }
                    Property::LoopInv { formula, .. } => {
                        sling_logic::parse_formula(formula)
                            .unwrap_or_else(|e| panic!("{}: bad loop inv: {e}", b.name));
                    }
                }
            }
        }
    }

    #[test]
    fn total_loc_is_comparable_to_paper() {
        let total: usize = all_benches().iter().map(|b| b.loc()).sum();
        // The paper's corpus is 4649 LoC of C; ours should be in the same
        // ballpark (MiniC is a little more verbose per construct).
        assert!(total > 2000, "corpus too small: {total}");
    }
}
