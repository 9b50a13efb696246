//! The wavelet matrix (Claude, Navarro, Ordóñez \[11\]): a wavelet tree
//! layout for large alphabets, used by the paper's implementation for the
//! ring sequences `L_s` and `L_p` (§5).
//!
//! One bit vector per bit level (most-significant bit first); at each level
//! all zero-bit elements are stably moved before all one-bit elements. A
//! conceptual tree node at `(level, prefix)` — `prefix` being the `level`
//! high bits of the symbols below it — occupies a contiguous interval of the
//! level's array, so the node-local rank arithmetic of a pointer wavelet
//! tree carries over with an extra "node start" offset.
//!
//! The [`RangeGuide`] trait exposes the traversal hook that the RPQ engine
//! uses to implement the B-masked predicate discovery of §4.1 and the
//! D-masked subject discovery of §4.2: `enter` is consulted before
//! descending into a node (where the engine tests `D & B[v] != 0` or prunes
//! already-visited subtrees), and `leaf` receives each surviving symbol with
//! the rank offsets that complete a backward-search step (Eqs. 4–5).

use crate::int_vec::bits_for;
use crate::{BitVec, RankSelect, SpaceUsage};

/// Visitor guiding a pruned wavelet-matrix range traversal.
pub trait RangeGuide {
    /// Whether to enter the node at `(level, prefix)`. The root is
    /// `(0, 0)`; the children of `(l, v)` are `(l+1, 2v)` and `(l+1, 2v+1)`.
    /// Nodes whose interval restricted to the query range is empty are
    /// skipped without consulting the guide.
    fn enter(&mut self, level: usize, prefix: u64) -> bool;

    /// Called once per surviving symbol `sym` in the range, with
    /// `rank_b = rank(sym, b)` and `rank_e = rank(sym, e)`.
    fn leaf(&mut self, sym: u64, rank_b: usize, rank_e: usize);
}

/// Per-symbol intersection record: `(sym, (rank_b1, rank_e1), (rank_b2, rank_e2))`.
pub type IntersectionHit = (u64, (usize, usize), (usize, usize));

/// Visitor guiding a **frontier-batched** traversal over many ranges at
/// once ([`WaveletMatrix::guided_traverse_multi`]).
///
/// The traversal pushes all ranges through the levels together, so the
/// per-node work (the node-start rank, and whatever per-node state the
/// guide consults in [`enter_node`](Self::enter_node)) is paid once per
/// node instead of once per `(range, node)` pair. Semantically the
/// batched traversal is equivalent to running [`WaveletMatrix::guided_traverse`]
/// independently for every range with a guide whose `enter` is
/// `enter_node(..) && enter_item(item, ..)` — `enter_node` must therefore
/// be a *range-independent* predicate of the node.
///
/// Call-order contract: `enter_node` is called once per admitted node,
/// followed by `enter_item` for that node's live ranges; at leaf depth,
/// each admitted item's [`leaf`](Self::leaf) call immediately follows
/// its `enter_item`, so a guide may carry per-item context from one to
/// the other in a single field. The order in which *different* leaves
/// arrive is unspecified (subtrees whose batch narrows to one range are
/// finished eagerly) — guides needing sorted symbols sort their output.
pub trait MultiRangeGuide {
    /// Whether any range may enter the node at `(level, prefix)`.
    /// Returning `false` prunes the node for *every* range.
    fn enter_node(&mut self, level: usize, prefix: u64) -> bool;

    /// Whether range `item` (its index in the input slice) enters an
    /// admitted node.
    fn enter_item(&mut self, item: u32, level: usize, prefix: u64) -> bool;

    /// Called per surviving `(item, sym)` with the item's rank offsets
    /// (leaf arrival order unspecified; see the trait docs).
    fn leaf(&mut self, item: u32, sym: u64, rank_b: usize, rank_e: usize);
}

/// Reusable scratch for [`WaveletMatrix::guided_traverse_multi`]: callers
/// on a hot path (a BFS expanding frontier after frontier) keep one
/// `MultiTraversal` and reuse its buffers across calls.
#[derive(Clone, Debug, Default)]
pub struct MultiTraversal {
    /// `(prefix, start, item_lo, item_hi)` per live node of the level.
    nodes: Vec<(u64, usize, usize, usize)>,
    next_nodes: Vec<(u64, usize, usize, usize)>,
    /// `(item, b, e)` runs, indexed by the node records.
    items: Vec<(u32, usize, usize)>,
    next_items: Vec<(u32, usize, usize)>,
    /// Per-node scratch: the right-child `(item, b1, e1)` bounds, held
    /// back until the left child has been fully admitted.
    right: Vec<(u32, usize, usize)>,
    /// Rank computations performed by the last run.
    pub ranks: u64,
    /// Rank computations a per-range traversal would have needed on top
    /// of [`ranks`](Self::ranks): shared node-start ranks and directory
    /// probes merged by [`RankSelect::rank1_pair`].
    pub ranks_saved: u64,
}

impl MultiTraversal {
    /// Fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes held by the reusable buffers.
    pub fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.nodes.capacity() + self.next_nodes.capacity())
            * size_of::<(u64, usize, usize, usize)>()
            + (self.items.capacity() + self.next_items.capacity() + self.right.capacity())
                * size_of::<(u32, usize, usize)>()
    }

    /// Runs the batched traversal of `ranges` over `wm` (see
    /// [`WaveletMatrix::guided_traverse_multi`]).
    pub fn run<G: MultiRangeGuide>(
        &mut self,
        wm: &WaveletMatrix,
        ranges: &[(usize, usize)],
        guide: &mut G,
    ) {
        self.ranks = 0;
        self.ranks_saved = 0;
        self.nodes.clear();
        self.items.clear();
        for (i, &(b, e)) in ranges.iter().enumerate() {
            assert!(b <= e && e <= wm.len, "range {i} out of bounds");
        }
        if ranges.iter().all(|&(b, e)| b == e) || !guide.enter_node(0, 0) {
            return;
        }
        for (i, &(b, e)) in ranges.iter().enumerate() {
            if b < e && guide.enter_item(i as u32, 0, 0) {
                self.items.push((i as u32, b, e));
            }
        }
        if self.items.is_empty() {
            return;
        }
        self.nodes.push((0, 0, 0, self.items.len()));

        for level in 0..wm.width {
            let lvl = &wm.levels[level];
            let z = wm.zeros[level];
            let at_leaves = level + 1 == wm.width;
            self.next_nodes.clear();
            self.next_items.clear();
            for n in 0..self.nodes.len() {
                let (prefix, start, lo, hi) = self.nodes[n];
                let s0 = lvl.rank0(start);
                // One start rank amortized over the node's whole batch; a
                // per-range traversal recomputes it for every range.
                self.ranks += 1;
                self.ranks_saved += (hi - lo) as u64 - 1;

                // One pass over the node's items: admit left-child items
                // immediately (enter_node lazily on the first live one),
                // hold right-child bounds back so the left child is fully
                // handled first — mirroring `traverse_rec`'s
                // enter-then-descend order per range.
                let left = prefix << 1;
                let mut left_entered = None;
                let left_lo = self.next_items.len();
                self.right.clear();
                for i in lo..hi {
                    let (id, b, e) = self.items[i];
                    let (b0, e0) = if RankSelect::same_superblock(b, e) {
                        self.ranks += 1;
                        self.ranks_saved += 1;
                        lvl.rank0_pair(b, e)
                    } else {
                        self.ranks += 2;
                        (lvl.rank0(b), lvl.rank0(e))
                    };
                    if e0 > b0 {
                        let entered =
                            *left_entered.get_or_insert_with(|| guide.enter_node(level + 1, left));
                        if entered && guide.enter_item(id, level + 1, left) {
                            if at_leaves {
                                guide.leaf(id, left, b0 - s0, e0 - s0);
                            } else {
                                self.next_items.push((id, b0, e0));
                            }
                        }
                    }
                    let (b1, e1) = (z + (b - b0), z + (e - e0));
                    if e1 > b1 {
                        self.right.push((id, b1, e1));
                    }
                }
                self.seal_child(wm, level, left, s0, left_lo, at_leaves, guide);

                let right = left | 1;
                let right_start = z + (start - s0);
                let right_lo = self.next_items.len();
                if !self.right.is_empty() && guide.enter_node(level + 1, right) {
                    for i in 0..self.right.len() {
                        let (id, b1, e1) = self.right[i];
                        if guide.enter_item(id, level + 1, right) {
                            if at_leaves {
                                guide.leaf(id, right, b1 - right_start, e1 - right_start);
                            } else {
                                self.next_items.push((id, b1, e1));
                            }
                        }
                    }
                }
                self.seal_child(wm, level, right, right_start, right_lo, at_leaves, guide);
            }
            std::mem::swap(&mut self.nodes, &mut self.next_nodes);
            std::mem::swap(&mut self.items, &mut self.next_items);
            if self.nodes.is_empty() {
                return;
            }
        }
    }

    /// Closes out a child node's item run: empty runs vanish, singleton
    /// runs finish eagerly through the allocation-free recursive descent
    /// (level buffering gains nothing for one range), larger runs become
    /// a node of the next level.
    #[allow(clippy::too_many_arguments)]
    fn seal_child<G: MultiRangeGuide>(
        &mut self,
        wm: &WaveletMatrix,
        level: usize,
        child: u64,
        child_start: usize,
        item_lo: usize,
        at_leaves: bool,
        guide: &mut G,
    ) {
        if at_leaves {
            return; // leaves were emitted inline
        }
        match self.next_items.len() - item_lo {
            0 => {}
            1 => {
                let (id, cb, ce) = self.next_items.pop().expect("just pushed");
                wm.descend_single(
                    id,
                    level + 1,
                    child,
                    child_start,
                    cb,
                    ce,
                    guide,
                    &mut self.ranks,
                    &mut self.ranks_saved,
                );
            }
            _ => self
                .next_nodes
                .push((child, child_start, item_lo, self.next_items.len())),
        }
    }
}

/// A wavelet matrix over a sequence of symbols in `[0, sigma)`.
///
/// ```
/// use succinct::WaveletMatrix;
///
/// let wm = WaveletMatrix::new(&[3, 1, 4, 1, 5, 1, 2], 8);
/// assert_eq!(wm.access(2), 4);
/// assert_eq!(wm.rank(1, 6), 3);           // three 1s before position 6
/// assert_eq!(wm.select(1, 1), Some(3));   // second 1 sits at position 3
/// let mut distinct = Vec::new();
/// wm.range_distinct(0, 4, &mut |sym, _, _| distinct.push(sym));
/// assert_eq!(distinct, vec![1, 3, 4]);
/// assert_eq!(wm.range_quantile(0, 7, 3), 2); // 4th smallest overall
/// ```
#[derive(Clone, Debug)]
pub struct WaveletMatrix {
    levels: Vec<RankSelect>,
    zeros: Vec<usize>,
    len: usize,
    width: usize,
    sigma: u64,
}

/// A symbol word the level builder partitions. The ring feeds `u32`
/// (its universes fit 32 bits, and a level sweep is bound by the bytes it
/// moves); [`WaveletMatrix::new`] widens to `u64` only for alphabets
/// beyond 32 bits.
trait Symbol: Copy + Default {
    /// Bit `shift` of the symbol, as 0 or 1.
    fn bit(self, shift: usize) -> u64;
}

impl Symbol for u32 {
    #[inline]
    fn bit(self, shift: usize) -> u64 {
        ((self >> shift) & 1) as u64
    }
}

impl Symbol for u64 {
    #[inline]
    fn bit(self, shift: usize) -> u64 {
        (self >> shift) & 1
    }
}

/// The bits of `cur` at `shift`, packed 64 to a word.
fn level_words<S: Symbol>(cur: &[S], shift: usize) -> Vec<u64> {
    cur.chunks(64)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u64, |word, (i, s)| word | s.bit(shift) << i)
        })
        .collect()
}

fn check_alphabet(symbols: impl Iterator<Item = u64>, sigma: u64) {
    assert!(sigma > 0, "alphabet must be non-empty");
    for s in symbols {
        assert!(s < sigma, "symbol {s} out of alphabet range [0, {sigma})");
    }
}

impl WaveletMatrix {
    /// Builds a wavelet matrix for `symbols`, all of which must be `< sigma`.
    ///
    /// # Panics
    /// Panics if `sigma == 0` or any symbol is out of range.
    pub fn new(symbols: &[u64], sigma: u64) -> Self {
        check_alphabet(symbols.iter().copied(), sigma);
        if sigma <= 1 << 32 {
            Self::from_symbols(symbols.iter().map(|&s| s as u32).collect(), sigma)
        } else {
            Self::from_symbols(symbols.to_vec(), sigma)
        }
    }

    /// [`Self::new`] over 32-bit symbols, taking the vector as the
    /// builder's working buffer — what [`Self::new`] itself runs on for
    /// alphabets up to 2³².
    ///
    /// # Panics
    /// Panics if `sigma == 0` or any symbol is out of range.
    pub fn from_u32_symbols(symbols: Vec<u32>, sigma: u64) -> Self {
        check_alphabet(symbols.iter().map(|&s| u64::from(s)), sigma);
        Self::from_symbols(symbols, sigma)
    }

    /// One sweep per level: the level's bits are assembled a word at a
    /// time while the symbols are stably partitioned into the next
    /// level's order (zeros from slot 0, ones from slot `z`). `z` is a
    /// count, so it does not depend on the order the symbols arrive in:
    /// the first level's takes its own pass, every later level's is
    /// counted by the sweep before it. The last level partitions nothing.
    /// The callers have checked the symbols against `sigma`.
    fn from_symbols<S: Symbol>(mut cur: Vec<S>, sigma: u64) -> Self {
        let len = cur.len();
        let width = bits_for(sigma.saturating_sub(1)).max(1);
        let mut levels = Vec::with_capacity(width);
        let mut zeros = Vec::with_capacity(width);
        let mut next = vec![S::default(); if width > 1 { len } else { 0 }];
        let mut z = len - cur.iter().map(|s| s.bit(width - 1) as usize).sum::<usize>();
        for shift in (1..width).rev() {
            let mut words = Vec::with_capacity(len.div_ceil(64));
            // Next free slot of the zero run and of the one run.
            let mut slot = [0usize, z];
            let mut next_ones = 0usize;
            for chunk in cur.chunks(64) {
                let mut word = 0u64;
                for (i, &s) in chunk.iter().enumerate() {
                    let bit = s.bit(shift);
                    word |= bit << i;
                    next[slot[bit as usize]] = s;
                    slot[bit as usize] += 1;
                    next_ones += s.bit(shift - 1) as usize;
                }
                words.push(word);
            }
            zeros.push(z);
            levels.push(RankSelect::new(BitVec::from_raw(words, len)));
            std::mem::swap(&mut cur, &mut next);
            z = len - next_ones;
        }
        zeros.push(z);
        levels.push(RankSelect::new(BitVec::from_raw(level_words(&cur, 0), len)));
        Self {
            levels,
            zeros,
            len,
            width,
            sigma,
        }
    }

    /// The level builder this crate shipped before [`Self::from_symbols`]
    /// (three iterator passes per level over 64-bit symbols), kept as the
    /// reference the construction tests compare bytes against.
    #[cfg(test)]
    fn new_reference(symbols: &[u64], sigma: u64) -> Self {
        assert!(sigma > 0, "alphabet must be non-empty");
        let width = bits_for(sigma.saturating_sub(1)).max(1);
        let mut levels = Vec::with_capacity(width);
        let mut zeros = Vec::with_capacity(width);
        let mut cur: Vec<u64> = symbols.to_vec();
        let mut next: Vec<u64> = Vec::with_capacity(cur.len());
        for l in 0..width {
            let shift = width - 1 - l;
            let bits = BitVec::from_bits(cur.iter().map(|&s| (s >> shift) & 1 == 1));
            next.clear();
            next.extend(cur.iter().copied().filter(|&s| (s >> shift) & 1 == 0));
            let z = next.len();
            next.extend(cur.iter().copied().filter(|&s| (s >> shift) & 1 == 1));
            zeros.push(z);
            levels.push(RankSelect::new(bits));
            std::mem::swap(&mut cur, &mut next);
        }
        Self {
            levels,
            zeros,
            len: symbols.len(),
            width,
            sigma,
        }
    }

    /// The per-level bit vectors, for the mapped on-disk format writer
    /// ([`crate::mapped`]).
    pub(crate) fn raw_levels(&self) -> &[RankSelect] {
        &self.levels
    }

    /// Reassembles a matrix from stored levels — the mapped-format load
    /// path. The `zeros` array is recomputed from the levels (it is the
    /// per-level zero count by construction), so it is never serialized
    /// and can't disagree with the bits.
    pub(crate) fn from_raw_parts(
        levels: Vec<RankSelect>,
        len: usize,
        sigma: u64,
    ) -> Result<Self, &'static str> {
        if sigma == 0 {
            return Err("wavelet matrix alphabet must be non-empty");
        }
        let width = bits_for(sigma.saturating_sub(1)).max(1);
        if levels.len() != width {
            return Err("wavelet matrix level count does not match alphabet width");
        }
        if levels.iter().any(|l| l.len() != len) {
            return Err("wavelet matrix level length does not match sequence length");
        }
        let zeros = levels.iter().map(|l| l.count_zeros()).collect();
        Ok(Self {
            levels,
            zeros,
            len,
            width,
            sigma,
        })
    }

    /// Sequence length.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Alphabet size.
    #[inline]
    pub fn sigma(&self) -> u64 {
        self.sigma
    }

    /// Number of bit levels (`⌈log₂ σ⌉`, at least 1).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The symbol at position `i`, in *O*(log σ).
    pub fn access(&self, i: usize) -> u64 {
        assert!(
            i < self.len,
            "position {i} out of bounds (len {})",
            self.len
        );
        let mut sym = 0u64;
        let mut i = i;
        for l in 0..self.width {
            let lvl = &self.levels[l];
            if lvl.get(i) {
                sym = (sym << 1) | 1;
                i = self.zeros[l] + lvl.rank1(i);
            } else {
                sym <<= 1;
                i = lvl.rank0(i);
            }
        }
        sym
    }

    /// Number of occurrences of `sym` in `[0, i)`, in *O*(log σ).
    pub fn rank(&self, sym: u64, i: usize) -> usize {
        assert!(i <= self.len);
        assert!(sym < self.sigma);
        let (mut b, mut start) = (i, 0usize);
        for l in 0..self.width {
            let lvl = &self.levels[l];
            if (sym >> (self.width - 1 - l)) & 1 == 1 {
                b = self.zeros[l] + lvl.rank1(b);
                start = self.zeros[l] + lvl.rank1(start);
            } else {
                b = lvl.rank0(b);
                start = lvl.rank0(start);
            }
        }
        b - start
    }

    /// Position of the `k`-th occurrence of `sym` (0-based), or `None`.
    pub fn select(&self, sym: u64, k: usize) -> Option<usize> {
        assert!(sym < self.sigma);
        if k >= self.rank(sym, self.len) {
            return None;
        }
        // Descend to find the leaf-level start of sym's block.
        let mut start = 0usize;
        for l in 0..self.width {
            let lvl = &self.levels[l];
            if (sym >> (self.width - 1 - l)) & 1 == 1 {
                start = self.zeros[l] + lvl.rank1(start);
            } else {
                start = lvl.rank0(start);
            }
        }
        // Ascend, inverting each level's stable partition.
        let mut pos = start + k;
        for l in (0..self.width).rev() {
            let lvl = &self.levels[l];
            pos = if (sym >> (self.width - 1 - l)) & 1 == 1 {
                lvl.select1(pos - self.zeros[l])?
            } else {
                lvl.select0(pos)?
            };
        }
        Some(pos)
    }

    /// Runs a guided traversal of the range `[b, e)` (see [`RangeGuide`]).
    ///
    /// Only nodes with a non-empty restriction of the range are visited, and
    /// only if the guide admits them, so the cost is *O*(log σ) per admitted
    /// leaf — the property Theorem 4.1 charges traversal costs with.
    pub fn guided_traverse<G: RangeGuide>(&self, b: usize, e: usize, guide: &mut G) {
        assert!(b <= e && e <= self.len);
        if b == e || !guide.enter(0, 0) {
            return;
        }
        self.traverse_rec(0, 0, 0, b, e, guide);
    }

    fn traverse_rec<G: RangeGuide>(
        &self,
        level: usize,
        prefix: u64,
        start: usize,
        b: usize,
        e: usize,
        guide: &mut G,
    ) {
        if level == self.width {
            guide.leaf(prefix, b - start, e - start);
            return;
        }
        let lvl = &self.levels[level];
        let (s0, b0, e0) = (lvl.rank0(start), lvl.rank0(b), lvl.rank0(e));
        if e0 > b0 && guide.enter(level + 1, prefix << 1) {
            self.traverse_rec(level + 1, prefix << 1, s0, b0, e0, guide);
        }
        let z = self.zeros[level];
        let (s1, b1, e1) = (z + (start - s0), z + (b - b0), z + (e - e0));
        if e1 > b1 && guide.enter(level + 1, (prefix << 1) | 1) {
            self.traverse_rec(level + 1, (prefix << 1) | 1, s1, b1, e1, guide);
        }
    }

    /// [`MultiTraversal`]'s tail descent for a subtree holding a single
    /// live range: plain recursion, no level buffers. The node itself is
    /// already admitted; only its children consult the guide.
    #[allow(clippy::too_many_arguments)]
    fn descend_single<G: MultiRangeGuide>(
        &self,
        item: u32,
        level: usize,
        prefix: u64,
        start: usize,
        b: usize,
        e: usize,
        guide: &mut G,
        ranks: &mut u64,
        ranks_saved: &mut u64,
    ) {
        if level == self.width {
            guide.leaf(item, prefix, b - start, e - start);
            return;
        }
        let lvl = &self.levels[level];
        let s0 = lvl.rank0(start);
        *ranks += 1;
        let (b0, e0) = if RankSelect::same_superblock(b, e) {
            *ranks += 1;
            *ranks_saved += 1;
            lvl.rank0_pair(b, e)
        } else {
            *ranks += 2;
            (lvl.rank0(b), lvl.rank0(e))
        };
        if e0 > b0
            && guide.enter_node(level + 1, prefix << 1)
            && guide.enter_item(item, level + 1, prefix << 1)
        {
            self.descend_single(
                item,
                level + 1,
                prefix << 1,
                s0,
                b0,
                e0,
                guide,
                ranks,
                ranks_saved,
            );
        }
        let z = self.zeros[level];
        let (s1, b1, e1) = (z + (start - s0), z + (b - b0), z + (e - e0));
        let child = (prefix << 1) | 1;
        if e1 > b1 && guide.enter_node(level + 1, child) && guide.enter_item(item, level + 1, child)
        {
            self.descend_single(
                item,
                level + 1,
                child,
                s1,
                b1,
                e1,
                guide,
                ranks,
                ranks_saved,
            );
        }
    }

    /// Frontier-batched guided traversal: pushes every range of `ranges`
    /// through the levels together (see [`MultiRangeGuide`]), so per-node
    /// work — the node-start rank, the guide's node admission — is shared
    /// across the whole frontier and the boundary ranks of adjacent
    /// ranges land on the same cache lines. Equivalent to a
    /// [`Self::guided_traverse`] per range; a BFS over a frontier of 64+
    /// ranges runs severalfold fewer rank computations this way.
    ///
    /// Allocates scratch per call; hot paths should hold a
    /// [`MultiTraversal`] and call [`MultiTraversal::run`] instead.
    pub fn guided_traverse_multi<G: MultiRangeGuide>(
        &self,
        ranges: &[(usize, usize)],
        guide: &mut G,
    ) {
        MultiTraversal::new().run(self, ranges, guide)
    }

    /// Batched [`Self::rank`]: replaces each `positions[i]` with
    /// `rank(sym, positions[i])`. The per-symbol node-start chain is
    /// computed once for the whole batch instead of once per position,
    /// halving the level ranks for large batches — the backward-step
    /// primitive batched frontier expansion is built on.
    pub fn rank_batch(&self, sym: u64, positions: &mut [usize]) {
        assert!(sym < self.sigma);
        for (i, &p) in positions.iter().enumerate() {
            assert!(p <= self.len, "position {i} out of bounds");
        }
        let mut start = 0usize;
        for l in 0..self.width {
            let lvl = &self.levels[l];
            if (sym >> (self.width - 1 - l)) & 1 == 1 {
                let z = self.zeros[l];
                for p in positions.iter_mut() {
                    *p = z + lvl.rank1(*p);
                }
                start = z + lvl.rank1(start);
            } else {
                for p in positions.iter_mut() {
                    *p = lvl.rank0(*p);
                }
                start = lvl.rank0(start);
            }
        }
        for p in positions.iter_mut() {
            *p -= start;
        }
    }

    /// Calls `f(sym, rank_b, rank_e)` for every distinct symbol in `[b, e)`,
    /// in increasing symbol order.
    pub fn range_distinct<F: FnMut(u64, usize, usize)>(&self, b: usize, e: usize, f: &mut F) {
        struct All<'a, F>(&'a mut F);
        impl<F: FnMut(u64, usize, usize)> RangeGuide for All<'_, F> {
            fn enter(&mut self, _: usize, _: u64) -> bool {
                true
            }
            fn leaf(&mut self, sym: u64, rb: usize, re: usize) {
                (self.0)(sym, rb, re)
            }
        }
        self.guided_traverse(b, e, &mut All(f));
    }

    /// Number of distinct symbols in `[b, e)`.
    pub fn count_distinct(&self, b: usize, e: usize) -> usize {
        let mut n = 0;
        self.range_distinct(b, e, &mut |_, _, _| n += 1);
        n
    }

    /// Symbols occurring in **both** ranges, with rank offsets in each
    /// (cf. [`crate::WaveletTree::range_intersect`]).
    pub fn range_intersect(&self, r1: (usize, usize), r2: (usize, usize)) -> Vec<IntersectionHit> {
        assert!(r1.0 <= r1.1 && r1.1 <= self.len);
        assert!(r2.0 <= r2.1 && r2.1 <= self.len);
        let mut out = Vec::new();
        if r1.0 < r1.1 && r2.0 < r2.1 {
            self.intersect_rec(0, 0, (0, r1.0, r1.1), (0, r2.0, r2.1), &mut out);
        }
        out
    }

    #[allow(clippy::type_complexity)]
    fn intersect_rec(
        &self,
        level: usize,
        prefix: u64,
        t1: (usize, usize, usize),
        t2: (usize, usize, usize),
        out: &mut Vec<IntersectionHit>,
    ) {
        if level == self.width {
            out.push((
                prefix,
                (t1.1 - t1.0, t1.2 - t1.0),
                (t2.1 - t2.0, t2.2 - t2.0),
            ));
            return;
        }
        let lvl = &self.levels[level];
        let z = self.zeros[level];
        let map0 = |t: (usize, usize, usize)| (lvl.rank0(t.0), lvl.rank0(t.1), lvl.rank0(t.2));
        let l1 = map0(t1);
        let l2 = map0(t2);
        if l1.2 > l1.1 && l2.2 > l2.1 {
            self.intersect_rec(level + 1, prefix << 1, l1, l2, out);
        }
        let map1 = |t: (usize, usize, usize), l: (usize, usize, usize)| {
            (z + (t.0 - l.0), z + (t.1 - l.1), z + (t.2 - l.2))
        };
        let h1 = map1(t1, l1);
        let h2 = map1(t2, l2);
        if h1.2 > h1.1 && h2.2 > h2.1 {
            self.intersect_rec(level + 1, (prefix << 1) | 1, h1, h2, out);
        }
    }

    /// The smallest symbol `>= x` in `[b, e)`, with rank offsets, or `None`.
    pub fn range_next_value(&self, b: usize, e: usize, x: u64) -> Option<(u64, usize, usize)> {
        assert!(b <= e && e <= self.len);
        if b == e {
            return None;
        }
        self.next_value_rec(0, 0, 0, b, e, x)
    }

    fn next_value_rec(
        &self,
        level: usize,
        prefix: u64,
        start: usize,
        b: usize,
        e: usize,
        x: u64,
    ) -> Option<(u64, usize, usize)> {
        // Symbol interval covered by this node: [lo, hi).
        let span = self.width - level;
        let lo = if span >= 64 { 0 } else { prefix << span };
        if span < 64 && lo.checked_add(1 << span).is_some_and(|hi| hi <= x) {
            return None;
        }
        if level == self.width {
            return Some((prefix, b - start, e - start));
        }
        let lvl = &self.levels[level];
        let (s0, b0, e0) = (lvl.rank0(start), lvl.rank0(b), lvl.rank0(e));
        if e0 > b0 {
            if let Some(hit) = self.next_value_rec(level + 1, prefix << 1, s0, b0, e0, x) {
                return Some(hit);
            }
        }
        let z = self.zeros[level];
        let (s1, b1, e1) = (z + (start - s0), z + (b - b0), z + (e - e0));
        if e1 > b1 {
            return self.next_value_rec(level + 1, (prefix << 1) | 1, s1, b1, e1, x);
        }
        None
    }

    /// Number of occurrences of symbols in `[lo, hi)` within positions
    /// `[b, e)` — a two-dimensional count in *O*(log σ), one of the
    /// "powerful operations providing on-the-fly selectivity statistics"
    /// §6 proposes for query planning.
    pub fn range_count_within(&self, b: usize, e: usize, lo: u64, hi: u64) -> usize {
        assert!(b <= e && e <= self.len);
        if b == e || lo >= hi {
            return 0;
        }
        self.count_within_rec(0, 0, b, e, lo, hi.min(1u64 << self.width.min(63)))
    }

    fn count_within_rec(
        &self,
        level: usize,
        prefix: u64,
        b: usize,
        e: usize,
        lo: u64,
        hi: u64,
    ) -> usize {
        if b == e {
            return 0;
        }
        let span = self.width - level;
        let node_lo = if span >= 64 { 0 } else { prefix << span };
        let node_hi = if span >= 63 {
            u64::MAX
        } else {
            node_lo + (1u64 << span)
        };
        if node_hi <= lo || node_lo >= hi {
            return 0;
        }
        if lo <= node_lo && node_hi <= hi {
            return e - b;
        }
        let lvl = &self.levels[level];
        let (b0, e0) = (lvl.rank0(b), lvl.rank0(e));
        let z = self.zeros[level];
        self.count_within_rec(level + 1, prefix << 1, b0, e0, lo, hi)
            + self.count_within_rec(
                level + 1,
                (prefix << 1) | 1,
                z + (b - b0),
                z + (e - e0),
                lo,
                hi,
            )
    }

    /// The `k`-th smallest symbol (0-based, counting multiplicity) in
    /// `[b, e)`, in *O*(log σ) — the classic wavelet-tree quantile
    /// \[21\].
    ///
    /// # Panics
    /// Panics if `k >= e - b` or the range is invalid.
    pub fn range_quantile(&self, b: usize, e: usize, k: usize) -> u64 {
        assert!(b <= e && e <= self.len);
        assert!(
            k < e - b,
            "quantile index {k} out of range of size {}",
            e - b
        );
        let (mut b, mut e, mut k) = (b, e, k);
        let mut sym = 0u64;
        for l in 0..self.width {
            let lvl = &self.levels[l];
            let (b0, e0) = (lvl.rank0(b), lvl.rank0(e));
            let zeros_here = e0 - b0;
            if k < zeros_here {
                sym <<= 1;
                b = b0;
                e = e0;
            } else {
                k -= zeros_here;
                sym = (sym << 1) | 1;
                let z = self.zeros[l];
                b = z + (b - b0);
                e = z + (e - e0);
            }
        }
        sym
    }

    /// Total number of conceptual tree nodes (`2^(width+1) - 1`), for sizing
    /// per-node mask tables in heap order.
    pub fn node_table_len(&self) -> usize {
        (1usize << (self.width + 1)) - 1
    }

    /// Heap index of the node `(level, prefix)`:
    /// `2^level - 1 + prefix`, compatible with [`Self::node_table_len`].
    #[inline]
    pub fn node_index(level: usize, prefix: u64) -> usize {
        (1usize << level) - 1 + prefix as usize
    }
}

impl SpaceUsage for WaveletMatrix {
    fn size_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.size_bytes()).sum::<usize>()
            + self.zeros.capacity() * std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WaveletTree;

    fn sample(n: usize, sigma: u64) -> Vec<u64> {
        (0..n)
            .map(|i| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 17) % sigma)
            .collect()
    }

    #[test]
    fn access_matches_input() {
        let syms = sample(700, 100);
        let wm = WaveletMatrix::new(&syms, 100);
        for (i, &s) in syms.iter().enumerate() {
            assert_eq!(wm.access(i), s, "position {i}");
        }
    }

    #[test]
    fn rank_matches_wavelet_tree() {
        let syms = sample(500, 43);
        let wm = WaveletMatrix::new(&syms, 43);
        let wt = WaveletTree::new(&syms, 43);
        for sym in 0..43 {
            for i in (0..=500).step_by(13) {
                assert_eq!(wm.rank(sym, i), wt.rank(sym, i), "rank({sym}, {i})");
            }
        }
    }

    #[test]
    fn select_inverts_rank() {
        let syms = sample(400, 17);
        let wm = WaveletMatrix::new(&syms, 17);
        for sym in 0..17 {
            let occ: Vec<usize> = (0..400).filter(|&i| syms[i] == sym).collect();
            for (k, &pos) in occ.iter().enumerate() {
                assert_eq!(wm.select(sym, k), Some(pos), "select({sym}, {k})");
            }
            assert_eq!(wm.select(sym, occ.len()), None);
        }
    }

    #[test]
    fn range_distinct_matches_wavelet_tree() {
        let syms = sample(350, 29);
        let wm = WaveletMatrix::new(&syms, 29);
        let wt = WaveletTree::new(&syms, 29);
        for (b, e) in [(0, 350), (17, 18), (40, 200), (349, 350), (60, 60)] {
            let mut got = Vec::new();
            wm.range_distinct(b, e, &mut |s, rb, re| got.push((s, rb, re)));
            let mut expected = Vec::new();
            wt.range_distinct(b, e, &mut |s, rb, re| expected.push((s, rb, re)));
            assert_eq!(got, expected, "range [{b}, {e})");
        }
    }

    #[test]
    fn guided_traversal_prunes_subtrees() {
        // Admit only symbols < 8 by pruning any node whose prefix, once
        // extended with zeros, already exceeds 7.
        let syms = sample(300, 32);
        let wm = WaveletMatrix::new(&syms, 32);
        struct Below8 {
            width: usize,
            seen: Vec<u64>,
            entered: usize,
        }
        impl RangeGuide for Below8 {
            fn enter(&mut self, level: usize, prefix: u64) -> bool {
                self.entered += 1;
                let span = self.width - level;
                (prefix << span) < 8
            }
            fn leaf(&mut self, sym: u64, _: usize, _: usize) {
                self.seen.push(sym);
            }
        }
        let mut guide = Below8 {
            width: wm.width(),
            seen: Vec::new(),
            entered: 0,
        };
        wm.guided_traverse(0, 300, &mut guide);
        let mut expected: Vec<u64> = syms.iter().copied().filter(|&s| s < 8).collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(guide.seen, expected);
        // Pruning must keep us away from the full 2*sigma node count.
        assert!(guide.entered < 2 * 32);
    }

    #[test]
    fn intersect_matches_wavelet_tree() {
        let syms = sample(280, 23);
        let wm = WaveletMatrix::new(&syms, 23);
        let wt = WaveletTree::new(&syms, 23);
        for (r1, r2) in [
            ((0, 140), (70, 280)),
            ((5, 10), (200, 230)),
            ((0, 0), (0, 280)),
        ] {
            assert_eq!(
                wm.range_intersect(r1, r2),
                wt.range_intersect(r1, r2),
                "ranges {r1:?} {r2:?}"
            );
        }
    }

    #[test]
    fn next_value_matches_wavelet_tree() {
        let syms = sample(260, 31);
        let wm = WaveletMatrix::new(&syms, 31);
        let wt = WaveletTree::new(&syms, 31);
        for x in 0..32 {
            for (b, e) in [(0usize, 260usize), (25, 80), (100, 103)] {
                assert_eq!(
                    wm.range_next_value(b, e, x),
                    wt.range_next_value(b, e, x),
                    "x={x} range [{b},{e})"
                );
            }
        }
    }

    #[test]
    fn sigma_one_and_empty() {
        let wm = WaveletMatrix::new(&[0, 0, 0], 1);
        assert_eq!(wm.access(2), 0);
        assert_eq!(wm.rank(0, 3), 3);
        assert_eq!(wm.select(0, 2), Some(2));

        let wm = WaveletMatrix::new(&[], 5);
        assert!(wm.is_empty());
        assert_eq!(wm.rank(4, 0), 0);
        assert_eq!(wm.count_distinct(0, 0), 0);
    }

    /// `n` symbols below `sigma`: uniform, or Zipf(1) — symbol `k` with
    /// probability about `1 / ((k + 1) ln σ)` — by a log-uniform draw.
    fn drawn(n: usize, sigma: u64, zipf: bool) -> Vec<u64> {
        let mut state = 0x2545_F491_4F6C_DD1Du64 ^ sigma;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = state >> 11;
                if zipf {
                    let u = r as f64 / (1u64 << 53) as f64;
                    (((sigma as f64).powf(u) as u64).max(1) - 1).min(sigma - 1)
                } else {
                    r % sigma
                }
            })
            .collect()
    }

    fn stored(wm: &WaveletMatrix) -> Vec<u8> {
        use crate::io::Persist;
        let mut bytes = Vec::new();
        wm.write_to(&mut bytes).unwrap();
        bytes
    }

    /// The one-sweep builder lays out exactly what the old three-pass one
    /// did: same `Persist` bytes, and — since those only replay the
    /// symbols — the same level words, rank and select directories.
    #[test]
    fn one_sweep_construction_is_byte_identical_to_the_reference() {
        // Widths 1, 7, 8, 17, and 40 for the 64-bit symbol path.
        for sigma in [2u64, 100, 256, (1 << 16) + 3, (1 << 39) + 5] {
            for n in [0usize, 1, 63, 64, 65, (1 << 16) + 3] {
                for zipf in [false, true] {
                    let syms = drawn(n, sigma, zipf);
                    let built = WaveletMatrix::new(&syms, sigma);
                    let reference = WaveletMatrix::new_reference(&syms, sigma);
                    let what = format!("sigma {sigma}, n {n}, zipf {zipf}");
                    assert_eq!(stored(&built), stored(&reference), "{what}");
                    assert_eq!(built.zeros, reference.zeros, "{what}");
                    assert_eq!(built.width, reference.width, "{what}");
                    for (l, (a, b)) in built.levels.iter().zip(&reference.levels).enumerate() {
                        assert_eq!(a.len(), b.len(), "{what}, level {l}");
                        assert_eq!(a.count_ones(), b.count_ones(), "{what}, level {l}");
                        assert!(a.raw_parts() == b.raw_parts(), "{what}, level {l}");
                        assert_eq!(
                            a.select_sample_rates(),
                            b.select_sample_rates(),
                            "{what}, level {l}"
                        );
                    }
                    if sigma <= 1 << 32 {
                        let narrow = syms.iter().map(|&s| s as u32).collect();
                        let from_u32 = WaveletMatrix::from_u32_symbols(narrow, sigma);
                        assert_eq!(stored(&from_u32), stored(&reference), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of alphabet range")]
    fn from_u32_symbols_checks_the_alphabet() {
        WaveletMatrix::from_u32_symbols(vec![0, 5, 2], 5);
    }

    #[test]
    fn node_index_heap_order() {
        assert_eq!(WaveletMatrix::node_index(0, 0), 0);
        assert_eq!(WaveletMatrix::node_index(1, 0), 1);
        assert_eq!(WaveletMatrix::node_index(1, 1), 2);
        assert_eq!(WaveletMatrix::node_index(2, 3), 6);
        let wm = WaveletMatrix::new(&[0, 1, 2, 3], 4);
        assert_eq!(wm.node_table_len(), 7);
    }

    #[test]
    fn range_count_within_matches_naive() {
        let syms = sample(300, 40);
        let wm = WaveletMatrix::new(&syms, 40);
        for (b, e) in [(0usize, 300usize), (25, 120), (100, 101), (50, 50)] {
            for (lo, hi) in [(0u64, 40u64), (5, 12), (39, 40), (10, 10), (0, 1)] {
                let naive = syms[b..e].iter().filter(|&&s| s >= lo && s < hi).count();
                assert_eq!(
                    wm.range_count_within(b, e, lo, hi),
                    naive,
                    "range [{b},{e}) values [{lo},{hi})"
                );
            }
        }
    }

    #[test]
    fn range_quantile_matches_sorted() {
        let syms = sample(200, 25);
        let wm = WaveletMatrix::new(&syms, 25);
        for (b, e) in [(0usize, 200usize), (30, 90), (150, 153)] {
            let mut sorted: Vec<u64> = syms[b..e].to_vec();
            sorted.sort_unstable();
            for (k, &expected) in sorted.iter().enumerate() {
                assert_eq!(wm.range_quantile(b, e, k), expected, "k={k} in [{b},{e})");
            }
        }
    }

    /// An all-admitting multi guide recording `(item, sym, rb, re)`.
    struct CollectMulti(Vec<(u32, u64, usize, usize)>);
    impl MultiRangeGuide for CollectMulti {
        fn enter_node(&mut self, _: usize, _: u64) -> bool {
            true
        }
        fn enter_item(&mut self, _: u32, _: usize, _: u64) -> bool {
            true
        }
        fn leaf(&mut self, item: u32, sym: u64, rb: usize, re: usize) {
            self.0.push((item, sym, rb, re));
        }
    }

    #[test]
    fn multi_traversal_matches_per_range_union() {
        let syms = sample(500, 41);
        let wm = WaveletMatrix::new(&syms, 41);
        let ranges = [
            (0usize, 120usize),
            (40, 41),
            (100, 400),
            (250, 250),
            (499, 500),
        ];
        let mut guide = CollectMulti(Vec::new());
        wm.guided_traverse_multi(&ranges, &mut guide);
        let mut got = guide.0;
        got.sort_unstable();
        let mut expected = Vec::new();
        for (i, &(b, e)) in ranges.iter().enumerate() {
            wm.range_distinct(b, e, &mut |s, rb, re| {
                expected.push((i as u32, s, rb, re));
            });
        }
        expected.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn multi_traversal_respects_item_pruning() {
        // Item 0 may only see symbols < 8; item 1 sees everything.
        let syms = sample(300, 32);
        let wm = WaveletMatrix::new(&syms, 32);
        struct PerItem {
            width: usize,
            out: Vec<(u32, u64)>,
        }
        impl MultiRangeGuide for PerItem {
            fn enter_node(&mut self, _: usize, _: u64) -> bool {
                true
            }
            fn enter_item(&mut self, item: u32, level: usize, prefix: u64) -> bool {
                item != 0 || (prefix << (self.width - level)) < 8
            }
            fn leaf(&mut self, item: u32, sym: u64, _: usize, _: usize) {
                self.out.push((item, sym));
            }
        }
        let mut guide = PerItem {
            width: wm.width(),
            out: Vec::new(),
        };
        wm.guided_traverse_multi(&[(0, 300), (0, 300)], &mut guide);
        let below8: Vec<u64> = guide
            .out
            .iter()
            .filter(|&&(i, _)| i == 0)
            .map(|&(_, s)| s)
            .collect();
        assert!(below8.iter().all(|&s| s < 8));
        let mut all: Vec<u64> = guide
            .out
            .iter()
            .filter(|&&(i, _)| i == 1)
            .map(|&(_, s)| s)
            .collect();
        all.sort_unstable();
        let mut expected: Vec<u64> = syms.clone();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(all, expected);
    }

    #[test]
    fn multi_traversal_counts_saved_ranks() {
        let syms = sample(2000, 64);
        let wm = WaveletMatrix::new(&syms, 64);
        let ranges: Vec<(usize, usize)> = (0..64).map(|i| (i * 30, i * 30 + 25)).collect();
        let mut mt = MultiTraversal::new();
        let mut guide = CollectMulti(Vec::new());
        mt.run(&wm, &ranges, &mut guide);
        assert!(mt.ranks > 0);
        assert!(
            mt.ranks_saved > mt.ranks / 2,
            "batching 64 ranges should save many ranks: did {} saved {}",
            mt.ranks,
            mt.ranks_saved
        );
        // Scratch reuse: a second run over the same input agrees.
        let mut guide2 = CollectMulti(Vec::new());
        mt.run(&wm, &ranges, &mut guide2);
        assert_eq!(guide.0, guide2.0);
    }

    #[test]
    fn multi_traversal_empty_and_degenerate() {
        let wm = WaveletMatrix::new(&[1u64, 2, 3], 4);
        let mut guide = CollectMulti(Vec::new());
        wm.guided_traverse_multi(&[], &mut guide);
        wm.guided_traverse_multi(&[(0, 0), (3, 3)], &mut guide);
        assert!(guide.0.is_empty());
    }

    #[test]
    fn rank_batch_matches_rank() {
        let syms = sample(600, 37);
        let wm = WaveletMatrix::new(&syms, 37);
        for sym in [0u64, 5, 17, 36] {
            let mut positions: Vec<usize> = (0..=600).step_by(13).collect();
            let expected: Vec<usize> = positions.iter().map(|&i| wm.rank(sym, i)).collect();
            wm.rank_batch(sym, &mut positions);
            assert_eq!(positions, expected, "sym {sym}");
        }
        // Empty batch is a no-op.
        wm.rank_batch(3, &mut []);
    }

    #[test]
    fn rank_of_absent_symbol_is_zero() {
        let syms = vec![1u64, 3, 5, 7];
        let wm = WaveletMatrix::new(&syms, 8);
        for sym in [0u64, 2, 4, 6] {
            assert_eq!(wm.rank(sym, 4), 0);
            assert_eq!(wm.select(sym, 0), None);
        }
    }
}
