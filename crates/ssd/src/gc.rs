//! Garbage-collection victim selection.
//!
//! When the free-block reserve runs low the FTL must erase a *victim*
//! block, first relocating its still-valid pages. The victim is the
//! closed block with the fewest valid pages, lowest block id first on
//! ties (greedy selection: optimal for uniform workloads, and what most
//! real firmware approximates).
//!
//! The candidate set is one bitset of block ids per valid-page count
//! (`0..=pages_per_block`), the buckets laid end to end: its set bits,
//! read in order, are the candidates in `(valid, block)` order. A page
//! invalidation moves its block one bucket down (two bit flips) and a
//! pick is the first set bit. Memory is `(pages_per_block + 1) ×
//! ⌈blocks / 64⌉` words.

use crate::types::BlockId;

/// Candidate set of closed blocks, bucketed by valid-page count.
#[derive(Debug, Default)]
pub(crate) struct CandidateSet {
    /// Bucket `v` is `bits[v * words..(v + 1) * words]`; bit `b` of it
    /// is set iff block `b` is a candidate with `v` valid pages.
    bits: Vec<u64>,
    /// Words per bucket.
    words: usize,
}

impl CandidateSet {
    /// A candidate set able to track `blocks` block ids of
    /// `pages_per_block` pages each.
    pub(crate) fn new(blocks: u32, pages_per_block: u32) -> Self {
        let words = (blocks as usize).div_ceil(64);
        Self {
            bits: vec![0; (pages_per_block as usize + 1) * words],
            words,
        }
    }

    /// Number of candidate blocks.
    pub(crate) fn len(&self) -> usize {
        self.bits
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum()
    }

    /// The word and mask of `block`'s bit in bucket `valid`.
    fn slot(&self, valid: u32, block: BlockId) -> (usize, u64) {
        (
            valid as usize * self.words + block as usize / 64,
            1 << (block % 64),
        )
    }

    /// Sets (`member`) or clears `block`'s bit in bucket `valid`;
    /// whether that changed it.
    fn mark(&mut self, valid: u32, block: BlockId, member: bool) -> bool {
        let (word, mask) = self.slot(valid, block);
        let was = self.bits[word] & mask != 0;
        if member {
            self.bits[word] |= mask;
        } else {
            self.bits[word] &= !mask;
        }
        was != member
    }

    /// Adds a freshly closed block with `valid` valid pages.
    pub(crate) fn insert(&mut self, block: BlockId, valid: u32) {
        let inserted = self.mark(valid, block, true);
        debug_assert!(inserted, "block {block} already a GC candidate");
    }

    /// Updates a candidate's valid count after a page invalidation.
    pub(crate) fn update_valid(&mut self, block: BlockId, old_valid: u32, new_valid: u32) {
        let removed = self.mark(old_valid, block, false);
        debug_assert!(removed, "block {block} missing from candidate set");
        self.mark(new_valid, block, true);
    }

    /// Removes a block (it is about to be erased or reopened).
    pub(crate) fn remove(&mut self, block: BlockId, valid: u32) {
        let removed = self.mark(valid, block, false);
        debug_assert!(removed, "block {block} missing from candidate set");
    }

    /// Every candidate as `(valid, block)`, in that order.
    fn members(&self) -> impl Iterator<Item = (u32, BlockId)> + '_ {
        let words = self.words;
        (self.bits.iter().enumerate())
            .filter(|&(_, &word)| word != 0)
            .flat_map(move |(i, &word)| {
                let (valid, base) = ((i / words) as u32, (i % words) as BlockId * 64);
                let mut rest = word;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let bit = rest.trailing_zeros();
                        rest &= rest - 1;
                        (valid, base + bit)
                    })
                })
            })
    }

    /// Picks the victim, the first candidate in `(valid, block)` order;
    /// returns `(block, valid_count)`, or `None` when there are no
    /// candidates.
    pub(crate) fn pick(&self) -> Option<(BlockId, u32)> {
        self.members().next().map(|(v, b)| (b, v))
    }

    /// Checks internal consistency against externally tracked valid counts.
    pub(crate) fn check_member(&self, block: BlockId, valid: u32) -> bool {
        let (word, mask) = self.slot(valid, block);
        self.bits[word] & mask != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn greedy_picks_min_valid() {
        let mut c = CandidateSet::new(8, 256);
        c.insert(3, 100);
        c.insert(5, 10);
        c.insert(1, 50);
        assert_eq!(c.pick(), Some((5, 10)));
    }

    #[test]
    fn update_valid_reorders() {
        let mut c = CandidateSet::new(8, 256);
        c.insert(0, 100);
        c.insert(1, 90);
        c.update_valid(0, 100, 5);
        assert_eq!(c.pick(), Some((0, 5)));
    }

    #[test]
    fn remove_deletes() {
        let mut c = CandidateSet::new(8, 256);
        c.insert(2, 7);
        assert_eq!(c.len(), 1);
        c.remove(2, 7);
        assert_eq!(c.len(), 0);
        assert_eq!(c.pick(), None);
    }

    #[test]
    fn tie_break_is_deterministic() {
        let mut c = CandidateSet::new(8, 256);
        c.insert(4, 10);
        c.insert(2, 10);
        assert_eq!(c.pick(), Some((2, 10)), "lowest id wins ties");
    }

    /// The ordered-set candidate set the buckets replaced: `(valid,
    /// block)` pairs in a `BTreeSet`, whose first pair is the victim.
    type Oracle = std::collections::BTreeSet<(u32, BlockId)>;

    /// Block ids on both sides of the bucket words' edges.
    const EDGES: [BlockId; 9] = [0, 1, 62, 63, 64, 65, 126, 127, 129];

    #[derive(Debug, Clone)]
    enum Op {
        /// Insert the block if it is no candidate, else remove it.
        Toggle(usize, u32),
        /// Move a candidate to another valid count.
        Update(usize, u32),
        Pick,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn buckets_pick_what_the_ordered_set_picks(
            ops in proptest::collection::vec(
                prop_oneof![
                    3 => (0..EDGES.len(), 0..=16u32).prop_map(|(b, v)| Op::Toggle(b, v)),
                    3 => (0..EDGES.len(), 0..=16u32).prop_map(|(b, v)| Op::Update(b, v)),
                    2 => Just(Op::Pick),
                ],
                1..200,
            ),
        ) {
            let (blocks, ppb) = (130, 16);
            let mut set = CandidateSet::new(blocks, ppb);
            let mut oracle = Oracle::new();
            let mut valid = [None::<u32>; EDGES.len()];
            for op in ops {
                match op {
                    Op::Toggle(i, v) => match valid[i].take() {
                        Some(old) => {
                            set.remove(EDGES[i], old);
                            oracle.remove(&(old, EDGES[i]));
                        }
                        None => {
                            set.insert(EDGES[i], v);
                            oracle.insert((v, EDGES[i]));
                            valid[i] = Some(v);
                        }
                    },
                    Op::Update(i, v) => {
                        if let Some(old) = valid[i] {
                            set.update_valid(EDGES[i], old, v);
                            oracle.remove(&(old, EDGES[i]));
                            oracle.insert((v, EDGES[i]));
                            valid[i] = Some(v);
                        }
                    }
                    Op::Pick => {
                        let first = oracle.first().map(|&(v, b)| (b, v));
                        prop_assert_eq!(set.pick(), first);
                    }
                }
                prop_assert_eq!(set.len(), oracle.len());
                for (&block, v) in EDGES.iter().zip(valid) {
                    prop_assert_eq!(v.is_some_and(|v| set.check_member(block, v)), v.is_some());
                }
            }
            let members: Vec<_> = set.members().collect();
            prop_assert_eq!(members, oracle.into_iter().collect::<Vec<_>>());
        }
    }
}
