//! The per-location cell index and per-model cell sets.
//!
//! Inference at a location splits, checks and rejoins the same few heaps
//! over and over (Algorithm 1). [`CellIndex`] lists each selected model's
//! cells once, in address order, borrowed from the snapshots; every heap
//! the main loop talks about — a residue, a sub-heap, a rest — is then a
//! [`Masks`]: one bit per indexed cell, all models' bits in one word
//! vector. A union is a bitwise OR, a difference an AND-NOT and a size a
//! popcount; a [`Heap`] is built only for the final
//! [`Invariant::residues`](crate::Invariant::residues).

use std::borrow::Borrow;

use sling_models::{Heap, HeapCell, Loc, StackHeapModel};

/// One indexed model: its heap's cells in address order, and where its
/// bits start in a [`Masks`].
#[derive(Debug)]
pub(crate) struct IndexedModel<'s> {
    pub(crate) model: &'s StackHeapModel,
    /// The heap in address order; bit `i` stands for `cells[i]`.
    pub(crate) cells: Vec<(Loc, &'s HeapCell)>,
    /// This model's first word in every [`Masks`] of the index.
    base: usize,
}

impl IndexedModel<'_> {
    /// The position of the cell at `loc`, if the heap allocates it.
    pub(crate) fn slot(&self, loc: Loc) -> Option<usize> {
        self.cells.binary_search_by_key(&loc, |c| c.0).ok()
    }

    /// True if `masks` holds this model's `i`-th cell.
    pub(crate) fn has(&self, masks: &Masks, i: usize) -> bool {
        masks.words[self.base + i / 64] >> (i % 64) & 1 == 1
    }

    /// Adds this model's `i`-th cell to `masks`.
    pub(crate) fn set(&self, masks: &mut Masks, i: usize) {
        masks.words[self.base + i / 64] |= 1 << (i % 64);
    }

    fn words<'m>(&self, masks: &'m Masks) -> &'m [u64] {
        &masks.words[self.base..self.base + self.cells.len().div_ceil(64)]
    }

    /// How many of this model's cells `masks` holds.
    pub(crate) fn count(&self, masks: &Masks) -> usize {
        self.words(masks)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The positions of this model's cells in `masks`, ascending (so in
    /// address order).
    pub(crate) fn slots<'m>(&self, masks: &'m Masks) -> impl Iterator<Item = usize> + 'm {
        self.words(masks).iter().enumerate().flat_map(|(k, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    64 * k + bit
                })
            })
        })
    }

    /// The cells of `masks` as a heap (clones them).
    pub(crate) fn heap(&self, masks: &Masks) -> Heap {
        self.slots(masks)
            .map(|i| (self.cells[i].0, self.cells[i].1.clone()))
            .collect()
    }
}

/// The selected models of one location, each with its cells in address
/// order.
#[derive(Debug)]
pub(crate) struct CellIndex<'s> {
    pub(crate) models: Vec<IndexedModel<'s>>,
    /// Words of one [`Masks`] over this index.
    words: usize,
}

impl<'s> CellIndex<'s> {
    /// Indexes `models`, borrowing their cells.
    pub(crate) fn new<M: Borrow<StackHeapModel>>(models: &'s [M]) -> CellIndex<'s> {
        let mut words = 0;
        let models = models
            .iter()
            .map(|m| {
                let model = m.borrow();
                let cells: Vec<(Loc, &HeapCell)> = model.heap.iter().collect();
                let base = words;
                words += cells.len().div_ceil(64);
                IndexedModel { model, cells, base }
            })
            .collect();
        CellIndex { models, words }
    }

    /// No cell of any model.
    pub(crate) fn empty(&self) -> Masks {
        Masks {
            words: vec![0; self.words],
        }
    }

    /// Every cell of every model.
    pub(crate) fn full(&self) -> Masks {
        let mut masks = self.empty();
        for m in &self.models {
            let n = m.cells.len();
            masks.words[m.base..m.base + n / 64].fill(u64::MAX);
            if n % 64 != 0 {
                masks.words[m.base + n / 64] = (1 << (n % 64)) - 1;
            }
        }
        masks
    }
}

/// Per model of a [`CellIndex`], a set of that model's cells.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Masks {
    words: Vec<u64>,
}

impl Masks {
    /// Adds every cell of `other` (a union).
    pub(crate) fn union_with(&mut self, other: &Masks) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The cells of `self` that `other` lacks (a difference).
    pub(crate) fn minus(&self, other: &Masks) -> Masks {
        Masks {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a & !b)
                .collect(),
        }
    }

    /// Cells held, summed over models.
    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no model has a cell here.
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sling_logic::Symbol;
    use sling_models::{Stack, Val};

    fn model(locs: &[u64]) -> StackHeapModel {
        let heap = locs
            .iter()
            .map(|&l| {
                let cell = HeapCell::new(Symbol::intern("Node"), vec![Val::Nil]);
                (Loc::new(l), cell)
            })
            .collect();
        StackHeapModel::new(Stack::new(), heap)
    }

    #[test]
    fn masks_are_per_model_bitsets() {
        // 70 cells span two words; the empty model takes none.
        let big: Vec<u64> = (1..=70).collect();
        let models = vec![model(&[5, 3]), model(&[]), model(&big)];
        let index = CellIndex::new(&models);
        let full = index.full();
        assert_eq!(full.len(), 72);
        assert_eq!(index.models[2].count(&full), 70);
        assert!(index.empty().is_empty());

        let mut sub = index.empty();
        index.models[0].set(&mut sub, 1);
        index.models[2].set(&mut sub, 65);
        let rest = full.minus(&sub);
        assert_eq!(rest.len(), 70);
        assert!(!index.models[0].has(&rest, 1) && index.models[0].has(&rest, 0));
        assert_eq!(index.models[2].slots(&sub).collect::<Vec<_>>(), vec![65]);
        // Address order: slot 1 of the first model is 0x05.
        assert_eq!(index.models[0].heap(&sub).domain(), [Loc::new(5)].into());
        assert_eq!(index.models[0].slot(Loc::new(3)), Some(0));

        let mut union = rest;
        union.union_with(&sub);
        assert_eq!(union, full);
    }
}
