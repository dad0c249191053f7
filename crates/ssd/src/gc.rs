//! Garbage-collection victim selection.
//!
//! When the free-block reserve runs low the FTL must erase a *victim*
//! block, first relocating its still-valid pages. Which block to pick is
//! the classic FTL policy decision:
//!
//! * [`GcPolicy::Greedy`] — pick the block with the fewest valid pages.
//!   Optimal for uniform workloads; what most real firmware approximates.
//! * [`GcPolicy::CostBenefit`] — weigh reclaimable space against the age
//!   of the block's data (Rosenblum & Ousterhout's LFS cleaner score),
//!   which beats greedy under skewed workloads by segregating cold data.
//!
//! The candidate set is one bitset of block ids per valid-page count
//! (`0..=pages_per_block`), the buckets laid end to end: its set bits,
//! read in order, are the candidates in `(valid, block)` order. A page
//! invalidation moves its block one bucket down (two bit flips), a
//! greedy pick is the first set bit, and a cost-benefit pick visits the
//! set bits in that same order. Memory is `(pages_per_block + 1) ×
//! ⌈blocks / 64⌉` words.

use crate::types::BlockId;

/// Victim-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcPolicy {
    /// Minimum-valid-pages-first.
    Greedy,
    /// Cost-benefit: maximize `(1 - u) * age / (1 + u)` where `u` is the
    /// block's valid fraction and `age` the time since it was closed.
    CostBenefit,
}

/// Candidate set of closed blocks, bucketed by valid-page count for
/// greedy selection and carrying close timestamps for cost-benefit
/// scoring.
#[derive(Debug, Default)]
pub(crate) struct CandidateSet {
    /// Bucket `v` is `bits[v * words..(v + 1) * words]`; bit `b` of it
    /// is set iff block `b` is a candidate with `v` valid pages.
    bits: Vec<u64>,
    /// Words per bucket.
    words: usize,
    /// Sequence number at which each candidate block was closed
    /// (indexed by block id; only meaningful for members).
    closed_seq: Vec<u64>,
}

impl CandidateSet {
    /// A candidate set able to track `blocks` block ids of
    /// `pages_per_block` pages each.
    pub(crate) fn new(blocks: u32, pages_per_block: u32) -> Self {
        let words = (blocks as usize).div_ceil(64);
        Self {
            bits: vec![0; (pages_per_block as usize + 1) * words],
            words,
            closed_seq: vec![0; blocks as usize],
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

    /// Adds a freshly closed block with `valid` valid pages at logical
    /// sequence `seq`.
    pub(crate) fn insert(&mut self, block: BlockId, valid: u32, seq: u64) {
        let inserted = self.mark(valid, block, true);
        debug_assert!(inserted, "block {block} already a GC candidate");
        self.closed_seq[block as usize] = seq;
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

    /// Picks a victim under `policy`; returns `(block, valid_count)`.
    /// `now_seq` is the current logical sequence (for age computation).
    /// Returns `None` when there are no candidates.
    pub(crate) fn pick(
        &self,
        policy: GcPolicy,
        pages_per_block: u32,
        now_seq: u64,
    ) -> Option<(BlockId, u32)> {
        match policy {
            GcPolicy::Greedy => self.members().next().map(|(v, b)| (b, v)),
            GcPolicy::CostBenefit => {
                // Exact over every candidate, emptiest first, with an
                // early exit on a block that holds no valid page.
                let mut best: Option<(f64, BlockId, u32)> = None;
                for (valid, block) in self.members() {
                    if valid == 0 {
                        return Some((block, 0));
                    }
                    let u = valid as f64 / pages_per_block as f64;
                    let age =
                        (now_seq.saturating_sub(self.closed_seq[block as usize])) as f64 + 1.0;
                    let score = (1.0 - u) * age / (1.0 + u);
                    match best {
                        Some((s, _, _)) if s >= score => {}
                        _ => best = Some((score, block, valid)),
                    }
                }
                best.map(|(_, b, v)| (b, v))
            }
        }
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
        c.insert(3, 100, 1);
        c.insert(5, 10, 2);
        c.insert(1, 50, 3);
        assert_eq!(c.pick(GcPolicy::Greedy, 256, 10), Some((5, 10)));
    }

    #[test]
    fn update_valid_reorders() {
        let mut c = CandidateSet::new(8, 256);
        c.insert(0, 100, 1);
        c.insert(1, 90, 2);
        c.update_valid(0, 100, 5);
        assert_eq!(c.pick(GcPolicy::Greedy, 256, 10), Some((0, 5)));
    }

    #[test]
    fn remove_deletes() {
        let mut c = CandidateSet::new(8, 256);
        c.insert(2, 7, 1);
        assert_eq!(c.len(), 1);
        c.remove(2, 7);
        assert_eq!(c.len(), 0);
        assert_eq!(c.pick(GcPolicy::Greedy, 256, 10), None);
    }

    #[test]
    fn cost_benefit_prefers_old_half_empty_over_young_emptier() {
        let mut c = CandidateSet::new(8, 256);
        // Block 0: closed long ago (seq 1), half valid.
        c.insert(0, 128, 1);
        // Block 1: just closed (seq 1000), slightly fewer valid pages.
        c.insert(1, 120, 1000);
        let pick = c.pick(GcPolicy::CostBenefit, 256, 1001).map(|(b, _)| b);
        assert_eq!(
            pick,
            Some(0),
            "age should outweigh a small valid-count edge"
        );
        // Greedy would pick block 1.
        let greedy = c.pick(GcPolicy::Greedy, 256, 1001).map(|(b, _)| b);
        assert_eq!(greedy, Some(1));
    }

    #[test]
    fn cost_benefit_short_circuits_on_empty_block() {
        let mut c = CandidateSet::new(8, 256);
        c.insert(0, 0, 5);
        c.insert(1, 200, 1);
        assert_eq!(c.pick(GcPolicy::CostBenefit, 256, 10), Some((0, 0)));
    }

    #[test]
    fn tie_break_is_deterministic() {
        let mut c = CandidateSet::new(8, 256);
        c.insert(4, 10, 1);
        c.insert(2, 10, 1);
        assert_eq!(
            c.pick(GcPolicy::Greedy, 256, 2),
            Some((2, 10)),
            "lowest id wins ties"
        );
    }

    /// The ordered-set candidate set the buckets replaced: `(valid,
    /// block)` pairs in a `BTreeSet`, scanned in order.
    struct Oracle {
        by_valid: std::collections::BTreeSet<(u32, BlockId)>,
        closed_seq: Vec<u64>,
    }

    impl Oracle {
        fn pick(&self, policy: GcPolicy, ppb: u32, now_seq: u64) -> Option<(BlockId, u32)> {
            match policy {
                GcPolicy::Greedy => self.by_valid.iter().next().map(|&(v, b)| (b, v)),
                GcPolicy::CostBenefit => {
                    let mut best: Option<(f64, BlockId, u32)> = None;
                    for &(valid, block) in &self.by_valid {
                        if valid == 0 {
                            return Some((block, 0));
                        }
                        let u = valid as f64 / ppb as f64;
                        let age =
                            (now_seq.saturating_sub(self.closed_seq[block as usize])) as f64 + 1.0;
                        let score = (1.0 - u) * age / (1.0 + u);
                        match best {
                            Some((s, _, _)) if s >= score => {}
                            _ => best = Some((score, block, valid)),
                        }
                    }
                    best.map(|(_, b, v)| (b, v))
                }
            }
        }
    }

    /// Block ids on both sides of the bucket words' edges.
    const EDGES: [BlockId; 9] = [0, 1, 62, 63, 64, 65, 126, 127, 129];

    #[derive(Debug, Clone)]
    enum Op {
        /// Insert the block if it is no candidate, else remove it.
        Toggle(usize, u32, u64),
        /// Move a candidate to another valid count.
        Update(usize, u32),
        Pick(bool, u64),
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn buckets_pick_what_the_ordered_set_picks(
            ops in proptest::collection::vec(
                prop_oneof![
                    3 => (0..EDGES.len(), 0..=16u32, 0..400u64)
                        .prop_map(|(b, v, s)| Op::Toggle(b, v, s)),
                    3 => (0..EDGES.len(), 0..=16u32).prop_map(|(b, v)| Op::Update(b, v)),
                    2 => (any::<bool>(), 0..500u64).prop_map(|(c, n)| Op::Pick(c, n)),
                ],
                1..200,
            ),
        ) {
            let (blocks, ppb) = (130, 16);
            let mut set = CandidateSet::new(blocks, ppb);
            let mut oracle = Oracle {
                by_valid: Default::default(),
                closed_seq: vec![0; blocks as usize],
            };
            let mut valid = [None::<u32>; EDGES.len()];
            for op in ops {
                match op {
                    Op::Toggle(i, v, seq) => match valid[i].take() {
                        Some(old) => {
                            set.remove(EDGES[i], old);
                            oracle.by_valid.remove(&(old, EDGES[i]));
                        }
                        None => {
                            set.insert(EDGES[i], v, seq);
                            oracle.by_valid.insert((v, EDGES[i]));
                            oracle.closed_seq[EDGES[i] as usize] = seq;
                            valid[i] = Some(v);
                        }
                    },
                    Op::Update(i, v) => {
                        if let Some(old) = valid[i] {
                            set.update_valid(EDGES[i], old, v);
                            oracle.by_valid.remove(&(old, EDGES[i]));
                            oracle.by_valid.insert((v, EDGES[i]));
                            valid[i] = Some(v);
                        }
                    }
                    Op::Pick(cost_benefit, now) => {
                        let policy = if cost_benefit {
                            GcPolicy::CostBenefit
                        } else {
                            GcPolicy::Greedy
                        };
                        prop_assert_eq!(set.pick(policy, ppb, now), oracle.pick(policy, ppb, now));
                    }
                }
                prop_assert_eq!(set.len(), oracle.by_valid.len());
                for (&block, v) in EDGES.iter().zip(valid) {
                    prop_assert_eq!(v.is_some_and(|v| set.check_member(block, v)), v.is_some());
                }
            }
            let members: Vec<_> = set.members().collect();
            prop_assert_eq!(members, oracle.by_valid.into_iter().collect::<Vec<_>>());
        }
    }
}
