//! Sorted-vector duplicate elimination for result pairs.
//!
//! The engine's var-to-var pass and the §5 fast paths used to
//! deduplicate through an `FxHashSet<(Id, Id)>` — one hashed probe and a
//! scattered heap write per reported pair. [`PairBuffer`] replaces it
//! with an append-only vector that is sorted and deduplicated lazily:
//! pushes are a bump write, compactions amortize to *O*(n log n) total,
//! and the result comes out already in the sorted order every consumer
//! (tests, the CLI's byte-stable output, the server's result cache)
//! wants. Limit and budget checks stay *exact*: a distinct-count
//! threshold can only be crossed once the raw length reaches it, so the
//! buffer compacts exactly at those points and truncates to the
//! threshold — deterministically keeping the lexicographically smallest
//! pairs, where a hash set kept an arbitrary subset.

use ring::Id;

/// An append-only `(Id, Id)` set with lazy sort-and-dedup compaction.
#[derive(Clone, Debug, Default)]
pub struct PairBuffer {
    pairs: Vec<(Id, Id)>,
    /// Length of the sorted + deduplicated prefix (everything before it
    /// is distinct and ordered; the tail is raw pushes).
    sorted: usize,
    /// Merge scratch, reused across compactions.
    scratch: Vec<(Id, Id)>,
    /// Raw length before which [`Self::maybe_reached`] skips compacting.
    next_check: usize,
    /// Compaction passes that did real work (the no-op early return when
    /// the buffer is already compact is not counted).
    compactions: u64,
}

impl PairBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a pair (duplicates welcome; they are removed lazily).
    #[inline]
    pub fn push(&mut self, pair: (Id, Id)) {
        self.pairs.push(pair);
    }

    /// Sorts and deduplicates: afterwards the buffer holds exactly the
    /// distinct pairs, in order. The sorted prefix from the previous
    /// compaction is merged, not re-sorted.
    pub fn compact(&mut self) {
        let n = self.pairs.len();
        if self.sorted == n {
            return;
        }
        self.compactions += 1;
        self.pairs[self.sorted..].sort_unstable();
        if self.sorted == 0 {
            self.pairs.dedup();
        } else {
            self.scratch.clear();
            self.scratch.reserve(n);
            let (head, tail) = self.pairs.split_at(self.sorted);
            let (mut i, mut j) = (0, 0);
            while i < head.len() && j < tail.len() {
                if head[i] <= tail[j] {
                    push_dedup(&mut self.scratch, head[i]);
                    i += 1;
                } else {
                    push_dedup(&mut self.scratch, tail[j]);
                    j += 1;
                }
            }
            for &p in &head[i..] {
                push_dedup(&mut self.scratch, p);
            }
            for &p in &tail[j..] {
                push_dedup(&mut self.scratch, p);
            }
            std::mem::swap(&mut self.pairs, &mut self.scratch);
        }
        self.sorted = self.pairs.len();
    }

    /// Whether at least `n` *distinct* pairs have been pushed. Exact, and
    /// cheap while it is false: the buffer compacts only when the raw
    /// length reaches `n` (a necessary condition), so callers can probe
    /// after every push.
    pub fn distinct_reached(&mut self, n: usize) -> bool {
        if self.pairs.len() < n {
            return false;
        }
        self.compact();
        self.pairs.len() >= n
    }

    /// Amortized variant of [`Self::distinct_reached`]: detection may lag
    /// by a bounded number of pushes. After a compaction that finds `d`
    /// distinct pairs, the next probe waits for
    /// `max(n - d, raw/4, 64)` further pushes — the first term because
    /// the threshold cannot be crossed sooner, the second so duplicate
    /// storms that stall just under `n` cannot force a full merge per
    /// push. Callers that need the exact boundary settle once at the end
    /// with [`Self::distinct_reached`]/[`Self::distinct_len`] and
    /// [`Self::truncate_distinct`] (truncation keeps results exact even
    /// when detection was late).
    pub fn maybe_reached(&mut self, n: usize) -> bool {
        if self.pairs.len() < self.next_check.max(n) {
            return false;
        }
        self.compact();
        let d = self.pairs.len();
        self.next_check = d + (n.saturating_sub(d)).max(d / 4).max(64);
        d >= n
    }

    /// Exact number of distinct pairs (compacts).
    pub fn distinct_len(&mut self) -> usize {
        self.compact();
        self.pairs.len()
    }

    /// Keeps only the `n` smallest distinct pairs (compacts).
    pub fn truncate_distinct(&mut self, n: usize) {
        self.compact();
        self.pairs.truncate(n);
        self.sorted = self.pairs.len();
    }

    /// Whether `pair` was pushed before (compacts, then binary-searches).
    pub fn contains(&mut self, pair: (Id, Id)) -> bool {
        self.compact();
        self.pairs.binary_search(&pair).is_ok()
    }

    /// Number of compaction passes that did real work so far. The push
    /// sequence (and thus this count) is bit-identical across thread
    /// counts, so it is safe to fold into
    /// [`TraversalStats::pair_compactions`](crate::TraversalStats::pair_compactions).
    #[inline]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The distinct pairs, sorted ascending.
    pub fn into_sorted_vec(mut self) -> Vec<(Id, Id)> {
        self.compact();
        self.pairs
    }
}

#[inline]
fn push_dedup(out: &mut Vec<(Id, Id)>, p: (Id, Id)) {
    if out.last() != Some(&p) {
        out.push(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedups_and_sorts() {
        let mut b = PairBuffer::new();
        for p in [(3, 1), (1, 2), (3, 1), (0, 0), (1, 2), (9, 9), (0, 0)] {
            b.push(p);
        }
        assert_eq!(b.distinct_len(), 4);
        assert_eq!(b.into_sorted_vec(), vec![(0, 0), (1, 2), (3, 1), (9, 9)]);
    }

    #[test]
    fn distinct_reached_is_exact() {
        let mut b = PairBuffer::new();
        // Three distinct pairs, many duplicates interleaved.
        for i in 0..50u64 {
            b.push((i % 3, 0));
            assert!(!b.distinct_reached(4), "after push {i}");
            assert_eq!(b.distinct_reached(3), i >= 2, "after push {i}");
        }
        b.push((7, 7));
        assert!(b.distinct_reached(4));
        assert!(!b.distinct_reached(5));
    }

    #[test]
    fn maybe_reached_lags_but_settles_exactly() {
        let mut b = PairBuffer::new();
        // Three distinct pairs and a duplicate storm: the threshold of 4
        // must never fire, early or late.
        for i in 0..10_000u64 {
            b.push((i % 3, 0));
            assert!(!b.maybe_reached(4), "false positive at push {i}");
        }
        assert!(!b.distinct_reached(4));
        // A fourth distinct pair: the amortized probe may lag, but the
        // exact settle sees it.
        b.push((9, 9));
        for i in 0..200u64 {
            b.push((i % 3, 0));
        }
        assert!(b.distinct_reached(4));
        assert_eq!(b.distinct_len(), 4);
    }

    #[test]
    fn truncate_keeps_smallest() {
        let mut b = PairBuffer::new();
        for p in [(5, 0), (1, 0), (3, 0), (2, 0), (4, 0), (1, 0)] {
            b.push(p);
        }
        b.truncate_distinct(3);
        assert_eq!(b.into_sorted_vec(), vec![(1, 0), (2, 0), (3, 0)]);
    }

    #[test]
    fn contains_after_compaction() {
        let mut b = PairBuffer::new();
        b.push((2, 3));
        b.push((1, 1));
        assert!(b.contains((2, 3)));
        assert!(!b.contains((3, 2)));
        // Pushes after a compaction merge correctly.
        b.push((0, 9));
        b.push((2, 3));
        assert_eq!(b.distinct_len(), 3);
        assert!(b.contains((0, 9)));
    }

    #[test]
    fn incremental_compactions_merge() {
        let mut b = PairBuffer::new();
        let mut expected = Vec::new();
        for i in (0..200u64).rev() {
            b.push((i % 40, i % 7));
            expected.push((i % 40, i % 7));
            if i % 31 == 0 {
                b.compact();
            }
        }
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(b.into_sorted_vec(), expected);
    }

    #[test]
    fn compaction_counter_skips_noops() {
        let mut b = PairBuffer::new();
        assert_eq!(b.compactions(), 0);
        b.compact(); // empty: no-op
        assert_eq!(b.compactions(), 0);
        b.push((1, 1));
        b.compact();
        assert_eq!(b.compactions(), 1);
        b.compact(); // already compact: no-op
        assert_eq!(b.compactions(), 1);
        b.push((0, 0));
        assert_eq!(b.distinct_len(), 2);
        assert_eq!(b.compactions(), 2);
    }

    #[test]
    fn empty_and_zero_threshold() {
        let mut b = PairBuffer::new();
        assert!(b.distinct_reached(0));
        assert!(!b.distinct_reached(1));
        assert_eq!(b.distinct_len(), 0);
        assert!(b.into_sorted_vec().is_empty());
    }
}
